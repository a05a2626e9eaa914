package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"

	"clustersim/client"
	"clustersim/internal/engine"
	"clustersim/internal/obs"
	"clustersim/internal/service"
	"clustersim/internal/store"
)

// server is one in-process clusterd on a loopback port, configured with
// clusterd's defaults: a 256 MiB memory store, a 4096-flight tracer and
// no admission limits.
type server struct {
	eng    *engine.Engine
	st     *store.Memory
	name   string // host name in the worker's URL
	addr   string // loopback address it listens on
	http   *http.Server
	cancel context.CancelFunc
}

func startServer(name string, parallelism int) (*server, error) {
	st := store.NewMemory(256 << 20)
	eng := engine.New(engine.Options{Parallelism: parallelism, ResultStore: st, Tracer: obs.NewTracer(4096)})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &server{eng: eng, st: st, name: name, addr: ln.Addr().String(), cancel: cancel}
	s.http = &http.Server{Handler: service.New(ctx, eng, st)}
	go s.http.Serve(ln)
	return s, nil
}

func (s *server) url() string { return "http://" + s.name }

func (s *server) close() {
	s.http.Close()
	s.cancel()
}

// scrape reads the server's /metrics exposition into a series map.
func (s *server) scrape(ctx context.Context, tr http.RoundTripper) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.url()+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := tr.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return parseMetrics(resp.Body)
}

// parseMetrics reads a Prometheus text exposition into a map from series
// ("name" or "name{labels}", labels as exposed) to value. Comment lines
// are skipped.
func parseMetrics(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: malformed value in %q", line)
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	return out, sc.Err()
}

// persisted is a result cache as a restarted clusterd would find it:
// encoded results under their engine.ResultKey.
type persisted map[string][]byte

// persist encodes every result of a pass under its store key.
func persist(p *passResult) (persisted, error) {
	keyer := newKeyer()
	blobs := persisted{}
	for _, jr := range p.results {
		key, ok := keyer.ResultKey(jr.Job)
		if !ok {
			return nil, fmt.Errorf("%s/%s has no result key", jr.Job.Simpoint.Name, jr.Job.Setup.Label)
		}
		blob, err := engine.EncodeResult(jr.Result)
		if err != nil {
			return nil, err
		}
		blobs[key] = blob
	}
	return blobs, nil
}

// deployment is the set of in-process workers a workload drives. The
// workers are addressed by fixed names ("http://worker-1"), which its
// transport dials at their loopback ports: a fleet places jobs by
// hashing worker URLs, so fixed names give every run the same placement.
type deployment struct {
	servers   []*server
	transport *http.Transport
}

// deploy starts n workers at the given parallelism and loads the
// persisted results into each one's store.
func deploy(n, parallelism int, blobs persisted) (*deployment, error) {
	d := &deployment{transport: client.DefaultTransport.Clone()}
	addrs := map[string]string{}
	dialer := &net.Dialer{}
	d.transport.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		if a, ok := addrs[addr]; ok {
			addr = a
		}
		return dialer.DialContext(ctx, network, addr)
	}
	for i := 0; i < n; i++ {
		s, err := startServer(fmt.Sprintf("worker-%d", i+1), parallelism)
		if err != nil {
			d.close()
			return nil, err
		}
		for k, b := range blobs {
			s.st.Put(k, b)
		}
		addrs[s.name+":80"] = s.addr
		d.servers = append(d.servers, s)
	}
	return d, nil
}

func (d *deployment) urls() []string {
	var out []string
	for _, s := range d.servers {
		out = append(out, s.url())
	}
	return out
}

// httpClient is the client option that routes the SDK through the
// deployment's transport.
func (d *deployment) httpClient() client.Option {
	return client.WithHTTPClient(&http.Client{Transport: d.transport})
}

func (d *deployment) close() {
	for _, s := range d.servers {
		s.close()
	}
	d.transport.CloseIdleConnections()
}

// scrape sums every worker's /metrics series.
func (d *deployment) scrape(ctx context.Context) (map[string]float64, error) {
	total := map[string]float64{}
	for _, s := range d.servers {
		m, err := s.scrape(ctx, d.transport)
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			total[k] += v
		}
	}
	return total, nil
}

// jobsPerWorker returns how many jobs each worker's engine has answered.
func (d *deployment) jobsPerWorker() []int64 {
	out := make([]int64, len(d.servers))
	for i, s := range d.servers {
		st := s.eng.Stats()
		out[i] = st.ResultHits + st.ResultMisses
	}
	return out
}
