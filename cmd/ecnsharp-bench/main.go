// Command ecnsharp-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	ecnsharp-bench [-scale quick|full|smoke] [-parallel N] [-list] [ids...]
//
// With no ids, every experiment runs in paper order. Each experiment
// prints the rows/series of the corresponding paper artifact; EXPERIMENTS.md
// records how to read them against the paper's numbers. Each grid point of
// a figure runs once per seed as a cell, and a figure's cells execute on a
// worker pool; the tables are identical at any -parallel setting.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"ecnsharp/internal/experiments"
	"ecnsharp/internal/harness"
	_ "ecnsharp/internal/tune" // registers the tuned-vs-default experiment
)

func main() {
	scaleFlag := flag.String("scale", "quick", "experiment scale: quick, full or smoke")
	list := flag.Bool("list", false, "list experiment ids and exit")
	csvDir := flag.String("csv", "", "also write each table as CSV into this directory")
	parallel := flag.Int("parallel", 0, "worker pool size for independent runs (0 = one per CPU, 1 = serial)")
	timeout := flag.Duration("timeout", 0, "wall-clock limit per individual run, e.g. 2m (0 = none)")
	progress := flag.Bool("progress", false, "report each completed run on stderr")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: ecnsharp-bench [-scale quick|full|smoke] [-parallel N] [-list] [ids...]\n\n")
		fmt.Fprintf(os.Stderr, "Regenerates the evaluation artifacts of the ECN# paper (CoNEXT'19).\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Brief)
		}
		return
	}

	var sc experiments.Scale
	switch *scaleFlag {
	case "quick":
		sc = experiments.QuickScale()
	case "full":
		sc = experiments.FullScale()
	case "smoke":
		sc = experiments.SmokeScale()
	default:
		fmt.Fprintf(os.Stderr, "ecnsharp-bench: unknown scale %q\n", *scaleFlag)
		os.Exit(2)
	}
	sc.Parallel = *parallel
	sc.Timeout = *timeout
	if *progress {
		sc.Progress = func(p harness.Progress) {
			status := ""
			if p.Err != nil {
				status = " FAILED: " + p.Err.Error()
			}
			fmt.Fprintf(os.Stderr, "[%d/%d] %s (%v)%s\n",
				p.Done, p.Total, p.Label, p.Elapsed.Round(time.Millisecond), status)
		}
	}

	ids := flag.Args()
	if len(ids) == 0 {
		for _, e := range experiments.All() {
			ids = append(ids, e.ID)
		}
	}

	for _, id := range ids {
		e, err := experiments.ByID(id)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ecnsharp-bench:", err)
			os.Exit(2)
		}
		start := time.Now() //lint:allow wallclock -- reports real elapsed bench time to the operator
		for _, tb := range e.Run(sc) {
			fmt.Println(tb)
			if *csvDir != "" {
				path, err := tb.SaveCSV(*csvDir)
				if err != nil {
					fmt.Fprintln(os.Stderr, "ecnsharp-bench: writing CSV:", err)
					os.Exit(1)
				}
				fmt.Printf("[csv: %s]\n", path)
			}
		}
		fmt.Printf("[%s completed in %v]\n\n", e.ID, time.Since(start).Round(time.Millisecond)) //lint:allow wallclock -- reports real elapsed bench time to the operator
	}
}
