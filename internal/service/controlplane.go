// The service side of the fleet control plane (protocol v3): key
// enumeration and validated result upload on every worker — the two
// halves of a drain migration or scale-up backfill — plus, when
// EnableCoordinator is called, the membership register behind
// GET/POST /v1/ring that N concurrent fleet runners converge through.
package service

import (
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"strconv"

	"clustersim/fleet/controlplane"
	"clustersim/internal/api"
	"clustersim/internal/engine"
)

// maxUploadBytes bounds a PUT /v1/results body. Result blobs are a few
// KB of encoded metrics; anything near this bound is garbage.
const maxUploadBytes = 8 << 20

// keysDefaultLimit caps an unbounded GET /v1/keys page: a worker with a
// large disk store must not be asked to render its whole key set in one
// response. Clients page with ?cursor= regardless.
const keysDefaultLimit = 4096

// EnableCoordinator turns this server into the fleet's membership
// register: GET /v1/ring serves the current view and POST /v1/ring
// compare-and-swaps transitions against its epoch. The register starts
// empty (epoch 0); the first fleet runner to connect seeds the member
// list. Call before serving traffic.
func (s *Server) EnableCoordinator() {
	s.coordMu.Lock()
	s.coord = controlplane.NewMembership()
	s.coordMu.Unlock()
}

// handleKeys serves one page of the store's logical keys.
func (s *Server) handleKeys(w http.ResponseWriter, r *http.Request) {
	limit := keysDefaultLimit
	if q := r.URL.Query().Get("limit"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			httpError(w, http.StatusBadRequest, api.CodeBadRequest, "malformed ?limit=%q", q)
			return
		}
		if n > 0 && n < limit {
			limit = n
		}
	}
	cursor, err := url.QueryUnescape(r.URL.Query().Get("cursor"))
	if err != nil {
		httpError(w, http.StatusBadRequest, api.CodeBadRequest, "malformed ?cursor=")
		return
	}
	keys, next, err := s.st.Keys(r.Context(), limit, cursor)
	if err != nil {
		httpError(w, http.StatusInternalServerError, api.CodeInternal, "listing keys: %v", err)
		return
	}
	s.keyPages.Add(1)
	writeJSON(w, http.StatusOK, api.KeysResponse{Keys: keys, Next: next})
}

// handlePutResult accepts one encoded result blob under its logical key
// — how a drain warms a departing worker's successors and a backfill
// warms a newcomer. The blob must decode as a result (a store full of
// migrated garbage would poison every future cache hit), but is stored
// byte-identical to what was sent, so a migrated result serves exactly
// the bytes the original worker computed.
func (s *Server) handlePutResult(w http.ResponseWriter, r *http.Request) {
	key, err := url.QueryUnescape(r.URL.Query().Get("key"))
	if err != nil || key == "" {
		httpError(w, http.StatusBadRequest, api.CodeBadRequest, "missing or malformed ?key=")
		return
	}
	blob, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxUploadBytes))
	if err != nil {
		httpError(w, http.StatusBadRequest, api.CodeBadRequest, "reading body: %v", err)
		return
	}
	if _, err := engine.DecodeResult(blob); err != nil {
		httpError(w, http.StatusBadRequest, api.CodeBadRequest, "body is not an encoded result: %v", err)
		return
	}
	s.st.Put(key, blob)
	s.resultUploads.Add(1)
	w.WriteHeader(http.StatusNoContent)
}

// handleRingGet serves the coordinator's current membership view.
func (s *Server) handleRingGet(w http.ResponseWriter, r *http.Request) {
	s.coordMu.Lock()
	coord := s.coord
	s.coordMu.Unlock()
	if coord == nil {
		httpError(w, http.StatusNotFound, api.CodeUnsupported, "this server is not a coordinator (start clusterd with -coordinator)")
		return
	}
	writeJSON(w, http.StatusOK, coord.View())
}

// handleRingPost compare-and-swaps one membership transition. The epoch
// check and the transition are atomic under coordMu, so concurrent
// proposers serialize: exactly one wins each epoch, the rest get a 409
// epoch_conflict, re-sync, and usually find their goal already met.
func (s *Server) handleRingPost(w http.ResponseWriter, r *http.Request) {
	var tr api.RingTransition
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&tr); err != nil {
		httpError(w, http.StatusBadRequest, api.CodeBadRequest, "decoding transition: %v", err)
		return
	}
	if tr.URL == "" {
		httpError(w, http.StatusBadRequest, api.CodeBadRequest, "transition names no member url")
		return
	}
	s.coordMu.Lock()
	coord := s.coord
	if coord == nil {
		s.coordMu.Unlock()
		httpError(w, http.StatusNotFound, api.CodeUnsupported, "this server is not a coordinator (start clusterd with -coordinator)")
		return
	}
	if tr.BaseEpoch != coord.Epoch() {
		s.coordMu.Unlock()
		s.ringConflicts.Add(1)
		httpError(w, http.StatusConflict, api.CodeEpochConflict,
			"transition based on epoch %d, coordinator is at %d", tr.BaseEpoch, coord.Epoch())
		return
	}
	changed, err := coord.Transition(tr.Action, tr.URL)
	view := coord.View()
	s.coordMu.Unlock()
	if err != nil {
		httpError(w, http.StatusBadRequest, api.CodeBadRequest, "%v", err)
		return
	}
	if changed {
		s.ringTransitions.Add(1)
	}
	writeJSON(w, http.StatusOK, view)
}

// ringEpoch reports the coordinator's epoch (0 for plain workers).
func (s *Server) ringEpoch() int64 {
	s.coordMu.Lock()
	defer s.coordMu.Unlock()
	if s.coord == nil {
		return 0
	}
	return s.coord.Epoch()
}
