// Command bench is the repository's one repeatable benchmark: it builds
// the real serving stack (corpus → LSI model → sharded engine → HTTP
// server) in this process, drives it over loopback HTTP with closed-loop
// clients, checks every answer, and prints every metric BENCHMARK.json
// names. See README.md in this directory for the method and the metric
// definitions.
//
// Usage:
//
//	go run ./bench -workload topical-search -seed 1            # end-to-end metrics
//	go run ./bench -workload churn-mixed -seed 1 -trace 1      # per-layer metrics
//	go run ./bench -compare a.jsonl b.jsonl                    # apply the bounds
//	go run ./bench -manifest                                   # print BENCHMARK.json
//
// Exit status: 0 on a correct run (or a comparison with no `worse`
// cell), 1 when an operation failed or an answer was wrong (or a cell is
// `worse`), 2 on a usage or harness error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
)

func main() {
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	workloadName := fs.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := fs.Int64("seed", 1, "seed every generated input derives from")
	seconds := fs.Int("seconds", runSeconds, "length of the measured phase; sets the number of fixed-work blocks")
	trace := fs.Int("trace", 0, "0: end-to-end metrics from untraced blocks; 1: per-layer metrics from a traced run")
	scaleName := fs.String("scale", "full", "corpus and block size: full or tiny (smoke test)")
	outDir := fs.String("outdir", "bench/out", "directory for the snapshot file and the trace dump")
	out := fs.String("out", "", "append the run (env block, metrics, per-block detail) as one JSON line to this file (default <outdir>/results.jsonl)")
	compare := fs.Bool("compare", false, "compare two result files: bench -compare a.jsonl b.jsonl")
	benchmark := fs.String("benchmark", "BENCHMARK.json", "manifest whose bounds -compare applies")
	printManifest := fs.Bool("manifest", false, "print BENCHMARK.json as generated from the metric tables and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *printManifest {
		os.Stdout.Write(manifestJSON())
		return 0
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two result files")
			return 2
		}
		worse, err := compareFiles(os.Stdout, *benchmark, fs.Arg(0), fs.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		if worse {
			return 1
		}
		return 0
	}

	w, ok := workloadByName(*workloadName)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (want one of %s)\n", *workloadName, strings.Join(names, ", "))
		return 2
	}
	sc, ok := scaleByName(*scaleName)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown scale %q (want full or tiny)\n", *scaleName)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	if *out == "" {
		*out = *outDir + "/results.jsonl"
	}
	runtime.GOMAXPROCS(procs)
	res, err := execute(runConfig{w: w, sc: sc, seed: *seed, seconds: *seconds, trace: *trace == 1,
		outDir: *outDir, stdout: os.Stdout})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if err := appendResult(*out, res); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	// The contract's result line: last on standard output, exactly these keys.
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}
