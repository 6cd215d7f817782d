// Command neurdb-lint runs the neurdb-lint analyzer suite (internal/lint)
// over the module containing the working directory:
//
//	neurdb-lint [-json] [package ...]   (packages default to ./...)
//
// Every package is loaded from source; analyzers marked IncludeTests also
// run over its _test.go files (the in-package test variant and the external
// _test package). Diagnostics go to stderr as file:line:col: analyzer:
// message — or to stdout as a JSON array with -json — and the exit status is
// 1 when any are reported.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"io"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"neurdb/internal/lint"
)

func usage() {
	fmt.Fprintf(os.Stderr, `neurdb-lint enforces the neurdb invariants that no type or runtime assertion holds.

Usage:
  neurdb-lint [-json] [package ...]   (packages default to ./...)

Analyzers:
`)
	for _, a := range lint.All() {
		fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
	}
	os.Exit(1)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("neurdb-lint: ")
	flag.Usage = usage
	jsonOut := flag.Bool("json", false, "print diagnostics as JSON on stdout")
	flag.Parse()

	loader, paths := resolveTargets(flag.Args())
	suite := lint.All()
	var all []lint.Diagnostic
	for _, path := range paths {
		pkg, err := loader.Load(path)
		if err != nil {
			log.Fatal(err)
		}
		tests, err := loader.LoadTests(path)
		if err != nil {
			log.Fatal(err)
		}
		for _, p := range append([]*lint.Package{pkg}, tests...) {
			diags, err := lint.Run(p, suite)
			if err != nil {
				log.Fatal(err)
			}
			all = append(all, diags...)
		}
	}

	if *jsonOut {
		printJSON(loader.Fset(), all)
	} else {
		printDiags(os.Stderr, loader.Fset(), all)
		printSummary(os.Stderr, all)
	}
	if len(all) > 0 {
		os.Exit(1)
	}
}

// resolveTargets maps the command line to module import paths.
func resolveTargets(args []string) (*lint.Loader, []string) {
	root, err := findModuleRoot()
	if err != nil {
		log.Fatal(err)
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		log.Fatal(err)
	}
	var paths []string
	wantAll := len(args) == 0
	for _, a := range args {
		if a == "./..." || a == "all" {
			wantAll = true
		}
	}
	if wantAll {
		paths, err = loader.Walk()
		if err != nil {
			log.Fatal(err)
		}
	} else {
		cwd, err := os.Getwd()
		if err != nil {
			log.Fatal(err)
		}
		for _, a := range args {
			paths = append(paths, resolvePath(loader, root, cwd, a))
		}
	}
	return loader, paths
}

// printSummary appends a per-analyzer finding count so a long run ends with
// the shape of the damage, not just its tail.
func printSummary(w io.Writer, diags []lint.Diagnostic) {
	if len(diags) == 0 {
		return
	}
	counts := make(map[string]int)
	for _, d := range diags {
		counts[d.Analyzer]++
	}
	names := make([]string, 0, len(counts))
	for n := range counts {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "\n%d finding(s):\n", len(diags))
	for _, n := range names {
		fmt.Fprintf(w, "  %-12s %d\n", n, counts[n])
	}
}

// jsonDiag is the -json wire form of one diagnostic (the CI lint job
// uploads the array as a build artifact).
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func printJSON(fset *token.FileSet, diags []lint.Diagnostic) {
	out := make([]jsonDiag, 0, len(diags))
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		out = append(out, jsonDiag{pos.Filename, pos.Line, pos.Column, d.Analyzer, d.Message})
	}
	data, err := json.MarshalIndent(out, "", "\t")
	if err != nil {
		log.Fatal(err)
	}
	os.Stdout.Write(append(data, '\n'))
}

// resolvePath turns a ./relative package argument into a module import path.
func resolvePath(loader *lint.Loader, root, cwd, arg string) string {
	if !strings.HasPrefix(arg, ".") {
		return arg
	}
	abs := filepath.Join(cwd, arg)
	rel, err := filepath.Rel(root, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		log.Fatalf("package %s is outside module %s", arg, loader.Module)
	}
	if rel == "." {
		return loader.Module
	}
	return loader.Module + "/" + filepath.ToSlash(rel)
}

func findModuleRoot() (string, error) {
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
			return "", fmt.Errorf("no go.mod found above working directory")
		}
		dir = parent
	}
}

func printDiags(w io.Writer, fset *token.FileSet, diags []lint.Diagnostic) {
	for _, d := range diags {
		fmt.Fprintf(w, "%s: %s: %s\n", fset.Position(d.Pos), d.Analyzer, d.Message)
	}
}
