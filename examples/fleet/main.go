// fleet demonstrates sharded multi-host execution: the same RunMatrixOn
// call that fans a matrix across local CPU cores — or one clusterd
// worker — executes it across a whole fleet when handed a fleet runner.
// Jobs shard by consistent hash of their result content key, so each
// worker's store stays hot for its key range across runs; a worker
// killed mid-run is survived by re-sharding its unfinished jobs onto
// their ring successors.
//
// With -drain the example then walks a planned scale-down: the last
// worker's results migrate to its ring successors before it is removed,
// and the matrix re-runs against the shrunken fleet without a single
// re-simulation — the survivors inherited the departing worker's key
// range warm.
//
// Start two workers first, then point the example at both:
//
//	go run ./cmd/clusterd -addr :8080 -cachedir /tmp/fleet-w1
//	go run ./cmd/clusterd -addr :8081 -cachedir /tmp/fleet-w2
//	go run ./examples/fleet -workers http://localhost:8080,http://localhost:8081 -drain
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"clustersim"
	"clustersim/fleet"
)

func main() {
	workers := flag.String("workers", "http://localhost:8080,http://localhost:8081",
		"comma-separated clusterd base URLs")
	drain := flag.Bool("drain", false, "after the matrix, drain the last worker and re-run against the survivors")
	flag.Parse()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()

	var urls []string
	for _, u := range strings.Split(*workers, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}

	// Health checks run at construction: a dead or unauthorized worker
	// fails here, naming itself, before any job is submitted.
	runner, err := fleet.New(urls, fleet.WithLog(log.Printf))
	if err != nil {
		log.Fatalf("fleet unavailable (start workers with: go run ./cmd/clusterd): %v", err)
	}
	fmt.Printf("fleet of %d workers: %s\n", len(urls), strings.Join(urls, ", "))

	// The exact matrix code from the local and single-host examples —
	// only the runner changed.
	workloads := []*clustersim.Workload{
		clustersim.WorkloadByName("gzip-1"),
		clustersim.WorkloadByName("mcf"),
		clustersim.WorkloadByName("crafty"),
		clustersim.WorkloadByName("swim"),
	}
	setups := []clustersim.Setup{clustersim.SetupOP(2), clustersim.SetupVC(2, 2)}
	matrix, err := clustersim.RunMatrixOn(ctx, runner, workloads, setups,
		clustersim.RunOptions{NumUops: 20_000})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nsharded matrix (slowdown vs OP):")
	for i, w := range workloads {
		if matrix[i][0].Err != nil || matrix[i][1].Err != nil {
			log.Fatalf("%s: %v %v", w.Name, matrix[i][0].Err, matrix[i][1].Err)
		}
		slow := (float64(matrix[i][1].Metrics.Cycles)/float64(matrix[i][0].Metrics.Cycles) - 1) * 100
		fmt.Printf("  %-8s VC vs OP: %+.2f%%\n", w.Name, slow)
	}

	st := runner.Stats()
	fmt.Printf("\nfleet stats: %d simulations executed, %d served from worker caches, %d/%d workers alive\n",
		st.Simulations, st.ResultHits+st.StoreHits, runner.Alive(), len(urls))

	if !*drain || len(urls) < 2 {
		return
	}

	// Planned scale-down: the departing worker keeps serving while every
	// result blob it holds migrates to the workers that will inherit its
	// key range, and only then is it removed from the ring.
	leaving := urls[len(urls)-1]
	fmt.Printf("\ndraining %s out of the fleet...\n", leaving)
	if err := runner.Drain(ctx, leaving); err != nil {
		log.Fatalf("drain: %v", err)
	}
	fs := runner.FleetStats()
	fmt.Printf("drained: %d result blobs migrated to ring successors (membership epoch %d)\n",
		fs.DrainMigrated, fs.Epoch)
	for _, m := range fs.Members {
		fmt.Printf("  %-8s %s\n", m.State, m.URL)
	}

	// The same matrix against the shrunken fleet: every key now routes to
	// a survivor whose store already holds the migrated result, so this
	// re-run executes zero simulations.
	before := runner.Stats().Simulations
	if _, err := clustersim.RunMatrixOn(ctx, runner, workloads, setups,
		clustersim.RunOptions{NumUops: 20_000}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nre-run after drain: %d new simulations (want 0 — the survivors inherited the range warm)\n",
		runner.Stats().Simulations-before)
}
