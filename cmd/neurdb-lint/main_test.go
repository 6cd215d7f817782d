package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestBinarySmoke builds the neurdb-lint binary and runs it, the way CI
// does, over the known-bad fixture module, asserting that the diagnostic set
// matches the fixture's `// want analyzer:"regexp"` annotations exactly —
// the _test.go files' included.
func TestBinarySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	bin := filepath.Join(t.TempDir(), "neurdb-lint")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building neurdb-lint: %v\n%s", err, out)
	}

	badmod, err := filepath.Abs(filepath.Join("..", "..", "internal", "lint", "testdata", "badmod"))
	if err != nil {
		t.Fatal(err)
	}

	run := exec.Command(bin, "-json", "./...")
	run.Dir = badmod
	var stdout, stderr bytes.Buffer
	run.Stdout, run.Stderr = &stdout, &stderr
	err = run.Run()
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) || exitErr.ExitCode() != 1 {
		t.Fatalf("neurdb-lint over the known-bad fixture module: %v (want exit status 1)\n%s", err, stderr.String())
	}
	var got []jsonDiag
	if err := json.Unmarshal(stdout.Bytes(), &got); err != nil {
		t.Fatalf("decoding -json output: %v\n%s", err, stdout.String())
	}

	wants := collectWants(t, badmod)
	for _, d := range got {
		file := filepath.Base(d.File)
		matched := false
		for _, w := range wants {
			if !w.matched && w.file == file && w.line == d.Line && w.analyzer == d.Analyzer && w.re.MatchString(d.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic %s:%d: %s: %s", file, d.Line, d.Analyzer, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("missing diagnostic at %s:%d matching %s:%q", w.file, w.line, w.analyzer, w.re)
		}
	}
}

type want struct {
	file     string
	line     int
	analyzer string
	re       *regexp.Regexp
	matched  bool
}

var wantRe = regexp.MustCompile(`([a-z]+):"((?:[^"\\]|\\.)*)"`)

// collectWants scans every fixture .go file for want annotations.
func collectWants(t *testing.T, dir string) []*want {
	t.Helper()
	var wants []*want
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			_, rest, ok := strings.Cut(line, "// want ")
			if !ok {
				continue
			}
			for _, m := range wantRe.FindAllStringSubmatch(rest, -1) {
				re, err := regexp.Compile(m[2])
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %q: %v", path, i+1, m[2], err)
				}
				wants = append(wants, &want{file: filepath.Base(path), line: i + 1, analyzer: m[1], re: re})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return wants
}
