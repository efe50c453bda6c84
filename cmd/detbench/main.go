// Detbench regenerates the tables and figures of the paper's evaluation
// (§6) in their exact quantities: virtual times, counts, sizes and
// checksums, which repeat bit for bit on every host and are pinned by
// internal/bench/testdata/quick.golden.json. It reads no wall clock —
// host time is measured by `go run ./benchmark` (gated) and `go test
// -bench` (micro-benchmarks); README.md ("Benchmarks") says which
// number lives where.
//
// Usage:
//
//	detbench [-run id[,id...]] [-quick] [-cpus n] [-root dir] [-json]
//
// With no -run flag every experiment runs in paper order. With -json the
// selected tables are emitted as one JSON array instead of aligned text,
// which is what `make bench-json` uploads from CI.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
)

func main() {
	runIDs := flag.String("run", "", "comma-separated experiment ids (default: all)")
	quick := flag.Bool("quick", false, "use reduced problem sizes")
	cpus := flag.Int("cpus", 12, "modelled CPU count for fig7/fig8")
	root := flag.String("root", ".", "repository root (for tab3)")
	list := flag.Bool("list", false, "list experiment ids and exit")
	jsonOut := flag.Bool("json", false, "emit the result tables as a JSON array")
	flag.Parse()

	if *list {
		for _, id := range bench.Experiments() {
			fmt.Println(id)
		}
		return
	}
	ids := bench.Experiments()
	if *runIDs != "" {
		ids = strings.Split(*runIDs, ",")
	}
	opts := bench.Options{Quick: *quick, CPUs: *cpus}
	var tables []bench.Table
	for i, id := range ids {
		t, err := bench.Run(strings.TrimSpace(id), *root, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *jsonOut {
			tables = append(tables, t)
			continue
		}
		if i > 0 {
			fmt.Println()
		}
		fmt.Print(t.Format())
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(tables); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}
