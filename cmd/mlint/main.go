// mlint is the repository's own linter: it runs the internal/analysis
// suite over every package of the module and exits nonzero on findings.
//
//	mlint            # analyze the whole module (run from anywhere inside it)
//	mlint -list      # print the analyzer catalog and exit
//
// Findings print as path:line:col: message [analyzer]. A finding is
// silenced by a "//lint:<category>" comment on the offending line or the
// line above it, followed by a justification; docs/ANALYSIS.md documents
// each analyzer, its category, and when suppression is legitimate.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"messengers/internal/analysis"
	"messengers/internal/analysis/analyzers"
)

// suite is the analyzer catalog, in output order.
var suite = []*analysis.Analyzer{
	analyzers.SimDeterminism,
	analyzers.StickyErr,
	analyzers.ObsNames,
	analyzers.LockHold,
	analyzers.VMDispatch,
	analyzers.KindSwitch,
	analyzers.DeadCode,
}

func main() {
	list := flag.Bool("list", false, "print the analyzer catalog and exit")
	flag.Parse()
	if *list {
		for _, a := range suite {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}

	root, err := repoRoot()
	if err != nil {
		fatal(err)
	}
	loaded, err := analysis.NewLoader(root).LoadModule()
	if err != nil {
		fatal(err)
	}
	diags, err := analysis.Run(loaded, suite)
	if err != nil {
		fatal(err)
	}
	for _, d := range diags {
		rel, rerr := filepath.Rel(root, d.Pos.Filename)
		if rerr != nil {
			rel = d.Pos.Filename
		}
		fmt.Printf("%s:%d:%d: %s [%s]\n", rel, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "mlint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("mlint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "mlint: %v\n", err)
	os.Exit(1)
}
