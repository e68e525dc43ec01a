package messengers

import (
	"fmt"
	"go/scanner"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The names documentation may point at: a command, an internal package, a
// committed benchmark file or experiments table, a make target. A cmd/
// inside another module's import path is not ours, and a `make <target>`
// counts where it cannot be prose: after a backtick, or leading a line of
// shell.
var (
	refDir   = regexp.MustCompile(`(?:^|[^\w./-])(?:\./|messengers/)?((cmd|internal)/[a-z][a-z0-9_]*)`)
	refBench = regexp.MustCompile(`\bBENCH[A-Za-z0-9_]*\.jsonl?\b`)
	refTable = regexp.MustCompile(`\bexperiments/[a-z0-9_]+\.(?:csv|txt)\b`)
	refMake  = regexp.MustCompile("`make ([a-z][a-z0-9-]*)")
	refShell = regexp.MustCompile(`^\s*(?:run:\s*)?make ([a-z][a-z0-9-]*)`)
	makeRule = regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*):`)
)

// TestDocsNameOnlyWhatExists fails when a document, the Makefile, the CI
// workflow or a Go comment names a cmd/ or internal/ directory, a BENCH
// file, an experiments table or a make target that the tree does not have.
// CHANGES.md and ROADMAP.md are history and cmd/mbench keeps its provenance
// comments, so none of those is scanned.
func TestDocsNameOnlyWhatExists(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range makeRule.FindAllSubmatch(mk, -1) {
		targets[string(m[1])] = true
	}
	exists := func(path string) bool {
		_, err := os.Stat(path)
		return err == nil
	}
	// check reports every dangling name on one line; shell says a leading
	// `make x` on this line is a command rather than a sentence.
	check := func(where, line string, shell bool) {
		for _, m := range refDir.FindAllStringSubmatch(line, -1) {
			if !exists(m[1]) {
				t.Errorf("%s: %s does not exist", where, m[1])
			}
		}
		for _, re := range []*regexp.Regexp{refBench, refTable} {
			for _, m := range re.FindAllString(line, -1) {
				if !exists(m) {
					t.Errorf("%s: %s does not exist", where, m)
				}
			}
		}
		made := refMake.FindAllStringSubmatch(line, -1)
		if shell {
			made = append(made, refShell.FindAllStringSubmatch(line, -1)...)
		}
		for _, m := range made {
			if !targets[m[1]] {
				t.Errorf("%s: the Makefile has no target %q", where, m[1])
			}
		}
	}

	docs := []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "Makefile",
		".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md"}
	more, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range append(docs, more...) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		fenced := false
		for i, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
			}
			// Shell is a fenced block in Markdown, a recipe in the Makefile,
			// and anything outside a comment in the workflow.
			shell := fenced
			switch path {
			case "Makefile":
				shell = strings.HasPrefix(line, "\t")
			case ".github/workflows/ci.yml":
				shell = true
			}
			check(fmt.Sprintf("%s:%d", path, i+1), line, shell)
		}
	}

	for _, root := range []string{"cmd", "internal"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if path == filepath.Join("cmd", "mbench") {
					return filepath.SkipDir
				}
				return nil
			}
			if filepath.Ext(path) != ".go" {
				return nil
			}
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			fset := token.NewFileSet()
			var s scanner.Scanner
			s.Init(fset.AddFile(path, -1, len(src)), src, nil, scanner.ScanComments)
			for {
				pos, tok, lit := s.Scan()
				if tok == token.EOF {
					return nil
				}
				if tok == token.COMMENT {
					check(fset.Position(pos).String(), lit, false)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
