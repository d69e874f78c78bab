// Command experiments regenerates every experiment in README.md's index
// (E1–E13) and prints their tables.
//
// Usage:
//
//	experiments            # run everything
//	experiments -run e4    # run one experiment
//	experiments -run e1,e5 # run a subset
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"glimmers/internal/experiments"
)

// errUnknownID marks a -run list naming an experiment the index lacks: a
// usage error (exit 2), where a failing experiment is exit 1.
var errUnknownID = errors.New("unknown experiment id")

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		if errors.Is(err, errUnknownID) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// run prints the table of every experiment -run names, in index order.
// Nothing runs unless every name is in the index.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ExitOnError)
	runFlag := fs.String("run", "", "comma-separated experiment ids (e1..e13); empty runs all")
	_ = fs.Parse(args) // ExitOnError: a bad flag never returns

	var valid []string
	for _, e := range experiments.Index {
		valid = append(valid, e.ID)
	}
	want := map[string]bool{}
	if *runFlag != "" {
		for _, id := range strings.Split(*runFlag, ",") {
			id = strings.TrimSpace(strings.ToLower(id))
			if !slices.Contains(valid, id) {
				return fmt.Errorf("%w %q (valid: %s)", errUnknownID, id, strings.Join(valid, ", "))
			}
			want[id] = true
		}
	}
	for _, e := range experiments.Index {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		res, err := e.Run()
		if err != nil {
			return fmt.Errorf("%s (%s): %v", e.ID, e.Desc, err)
		}
		fmt.Fprintln(stdout, res.Table())
	}
	return nil
}
