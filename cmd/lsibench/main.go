// Command lsibench regenerates the paper's tables and figures.
//
// Usage:
//
//	lsibench -list
//	lsibench -exp fig6            # one experiment
//	lsibench -exp all             # everything, in paper order
//	lsibench -exp retrieval -seed 7
//
// Output is a plain-text report per experiment: the regenerated
// table/figure data, the paper's corresponding claim, and named metrics.
package main

// each exhibit reports its wall-clock run time.
//lsilint:file-ignore walltime

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment id to run, or 'all'")
	seed := flag.Int64("seed", 1, "seed for synthetic workloads")
	list := flag.Bool("list", false, "list experiment ids and exit")
	asJSON := flag.Bool("json", false, "emit one JSON object per experiment instead of text")
	flag.Parse()

	if *list {
		for _, r := range experiments.All() {
			fmt.Printf("%-14s %s\n", r.ID, r.Title)
		}
		return
	}

	var runners []experiments.Runner
	if *exp == "all" {
		runners = experiments.All()
	} else {
		r, ok := experiments.Lookup(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "lsibench: unknown experiment %q (use -list)\n", *exp)
			os.Exit(2)
		}
		runners = []experiments.Runner{r}
	}

	enc := json.NewEncoder(os.Stdout)
	exit := 0
	for _, r := range runners {
		start := time.Now()
		res, err := r.Run(*seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lsibench: %s failed: %v\n", r.ID, err)
			exit = 1
			continue
		}
		if *asJSON {
			if err := enc.Encode(struct {
				*experiments.Result
				ElapsedMS int64 `json:"elapsed_ms"`
			}{res, time.Since(start).Milliseconds()}); err != nil {
				fmt.Fprintf(os.Stderr, "lsibench: encoding %s: %v\n", r.ID, err)
				exit = 1
			}
			continue
		}
		fmt.Print(experiments.Render(res))
		fmt.Printf("(%v)\n\n", time.Since(start).Round(time.Millisecond))
	}
	os.Exit(exit)
}
