package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"clustersim/internal/engine"
)

// CSV renders Figure 5's per-simpoint data as comma-separated values with
// a header row (for external plotting).
func (r *Fig5Result) CSV() string {
	var b strings.Builder
	b.WriteString("simpoint,bench,class,weight,op_ipc")
	for _, cfg := range Fig5Configs {
		fmt.Fprintf(&b, ",%s_slowdown_pct", csvName(cfg))
	}
	b.WriteByte('\n')
	for _, row := range r.Rows {
		class := "int"
		if row.FP {
			class = "fp"
		}
		fmt.Fprintf(&b, "%s,%s,%s,%.6f,%.4f", row.Name, row.Bench, class, row.Weight, row.OPIPC)
		for _, cfg := range Fig5Configs {
			fmt.Fprintf(&b, ",%.4f", row.SlowdownPct[cfg])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV renders Figure 6's scatter points.
func (r *Fig6Result) CSV() string {
	var b strings.Builder
	b.WriteString("versus,simpoint,speedup_pct,copy_reduction_pct,balance_improvement_pct\n")
	for _, panel := range r.Panels {
		for _, pt := range panel.Points {
			fmt.Fprintf(&b, "%s,%s,%.4f,%.4f,%.4f\n",
				panel.Versus, pt.Name, pt.SpeedupPct, pt.CopyReductionPct, pt.BalanceImprovementPct)
		}
	}
	return b.String()
}

// CSV renders Figure 7's per-simpoint data.
func (r *Fig7Result) CSV() string {
	var b strings.Builder
	b.WriteString("simpoint,bench,class,weight")
	for _, cfg := range Fig7Configs {
		fmt.Fprintf(&b, ",%s_slowdown_pct", csvName(cfg))
	}
	b.WriteByte('\n')
	for _, row := range r.Rows {
		class := "int"
		if row.FP {
			class = "fp"
		}
		fmt.Fprintf(&b, "%s,%s,%s,%.6f", row.Name, row.Bench, class, row.Weight)
		for _, cfg := range Fig7Configs {
			fmt.Fprintf(&b, ",%.4f", row.SlowdownPct[cfg])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV renders one ablation sweep.
func (r *AblationResult) CSV() string {
	var b strings.Builder
	b.WriteString("point,slowdown_pct,copies_per_kuop\n")
	for _, pt := range r.Points {
		fmt.Fprintf(&b, "%s,%.4f,%.4f\n", csvName(pt.Label), pt.SlowdownPct, pt.CopiesPerKuop)
	}
	return b.String()
}

// csvName strips characters that complicate CSV consumers.
func csvName(s string) string {
	s = strings.ReplaceAll(s, ",", ";")
	s = strings.ReplaceAll(s, "(", "")
	s = strings.ReplaceAll(s, ")", "")
	s = strings.ReplaceAll(s, "->", "to")
	return s
}

// EngineReport renders an engine's cache counters as a one-line summary —
// the dedup accounting steerbench prints after a multi-experiment run.
// The "store" figure is the persistent result store's share of the
// whole-result lookups that missed in memory (absent without -cachedir).
func EngineReport(st engine.CacheStats) string {
	s := fmt.Sprintf(
		"engine: %d simulations, %d result hits, store hits %d/%d, %d/%d program hits",
		st.Simulations, st.ResultHits,
		st.StoreHits, st.StoreHits+st.StoreMisses,
		st.ProgramHits, st.ProgramHits+st.ProgramMisses)
	if st.StoreErrors > 0 {
		s += fmt.Sprintf(", %d store errors", st.StoreErrors)
	}
	return s
}

// WriteJSON marshals any experiment result as indented JSON.
func WriteJSON(w io.Writer, result any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(result)
}
