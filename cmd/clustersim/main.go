// Command clustersim runs one workload under one or more steering
// configurations and prints the metrics — the single-run entry point of
// the simulator.
//
// Usage:
//
//	clustersim -workload gzip-1 -configs OP,VC -clusters 2 -uops 120000
//	clustersim -list
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"clustersim"
)

func main() {
	var (
		name     = flag.String("workload", "gzip-1", "simulation point name (see -list)")
		configs  = flag.String("configs", "OP,one-cluster,OB,RHOP,VC", "comma-separated configurations")
		clusters = flag.Int("clusters", 2, "physical cluster count")
		numVC    = flag.Int("vc", 2, "virtual clusters for the VC configuration")
		uops     = flag.Int("uops", 120_000, "dynamic micro-ops to simulate")
		warmup   = flag.Int("warmup", 0, "micro-ops excluded from metrics (cache/predictor warmup)")
		profile  = flag.Bool("profile", false, "render queue-occupancy histograms per configuration")
		list     = flag.Bool("list", false, "list available workloads and exit")
	)
	flag.Parse()

	if *list {
		fmt.Println("available workloads (name, weight, class):")
		for _, w := range clustersim.Workloads() {
			class := "INT"
			if w.FP {
				class = "FP"
			}
			fmt.Printf("  %-12s w=%.3f %s\n", w.Name, w.Weight, class)
		}
		return
	}

	w := clustersim.WorkloadByName(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "unknown workload %q (try -list)\n", *name)
		os.Exit(1)
	}

	var setups []clustersim.Setup
	for _, c := range strings.Split(*configs, ",") {
		switch strings.TrimSpace(c) {
		case "OP":
			setups = append(setups, clustersim.SetupOP(*clusters))
		case "one-cluster":
			setups = append(setups, clustersim.SetupOneCluster(*clusters))
		case "OB":
			setups = append(setups, clustersim.SetupOB(*clusters))
		case "RHOP":
			setups = append(setups, clustersim.SetupRHOP(*clusters))
		case "VC":
			setups = append(setups, clustersim.SetupVC(*numVC, *clusters))
		default:
			fmt.Fprintf(os.Stderr, "unknown configuration %q\n", c)
			os.Exit(1)
		}
	}

	fmt.Printf("workload %s, %d clusters, %d micro-ops\n\n", w.Name, *clusters, *uops)
	var baseCycles int64
	for i, setup := range setups {
		opt := clustersim.RunOptions{NumUops: *uops, WarmupUops: *warmup, TrackHistograms: *profile}
		res := clustersim.Run(w, setup, opt)
		if res.Err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", setup.Label, res.Err)
			os.Exit(1)
		}
		m := res.Metrics
		if i == 0 {
			baseCycles = m.Cycles
		}
		rel := float64(m.Cycles)/float64(baseCycles)*100 - 100
		fmt.Printf("%-12s cycles=%-9d IPC=%-5.2f copies=%-7d copies/kuop=%-6.1f "+
			"allocStall=%-8d mispred=%4.1f%%  vs-first=%+.2f%%\n",
			setup.Label, m.Cycles, m.IPC(), m.Copies, m.CopiesPerKuop(),
			m.AllocStallCycles, m.MispredictRate()*100, rel)
		if *profile && m.Histograms != nil {
			fmt.Println(m.Histograms.Render())
		}
	}
}
