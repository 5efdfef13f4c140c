// Command merlinvet runs the project-specific static-analysis pass over
// the whole module: three analyzers (detrand, walltime, maporder) that
// machine-check the determinism invariants bit-identical reports and
// content-addressed artifact reuse rest on. See internal/lint for what
// each analyzer enforces and why no test can stand in for it.
//
// Usage:
//
//	merlinvet [-v] [-list] [./...]
//
// The whole module is always checked; `./...` is accepted for symmetry
// with the go tool, and any other argument is a usage error.
//
// Exit status: 0 when clean; 1 on any finding; 2 on a usage error or
// when the module fails to load or type-check.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"merlin/internal/lint"
)

func main() {
	verbose := flag.Bool("v", false, "also print every allowlisted wall-clock site")
	list := flag.Bool("list", false, "list analyzers and their diagnostic codes, then exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: merlinvet [-v] [-list] [./...]\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if args := flag.Args(); len(args) > 1 || len(args) == 1 && args[0] != "./..." {
		flag.Usage()
		os.Exit(2)
	}

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-10s %-40s %s\n", a.Name, strings.Join(a.Codes, ","), a.Doc)
		}
		return
	}

	moduleDir, err := lint.ModuleRoot(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "merlinvet:", err)
		os.Exit(2)
	}
	res, err := lint.Run(moduleDir, lint.Analyzers())
	if err != nil {
		fmt.Fprintln(os.Stderr, "merlinvet:", err)
		os.Exit(2)
	}

	rel := func(path string) string {
		if r, err := filepath.Rel(moduleDir, path); err == nil && !strings.HasPrefix(r, "..") {
			return r
		}
		return path
	}
	for _, d := range res.Findings {
		fmt.Printf("%s:%d:%d: %s: %s\n", rel(d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Code, d.Message)
	}
	if *verbose {
		for _, a := range res.Allowlisted {
			fmt.Printf("%s:%d: allowlisted %s in %s: %s\n", rel(a.Pos.Filename), a.Pos.Line, a.Code, a.Where, a.Reason)
		}
	}

	fmt.Fprintf(os.Stderr, "merlinvet: %d packages, %d findings, %d allowlisted sites\n",
		res.Packages, len(res.Findings), len(res.Allowlisted))
	if !res.Clean() {
		os.Exit(1)
	}
}
