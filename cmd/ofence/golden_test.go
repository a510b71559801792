package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"ofence/internal/corpus"
)

// The CLI goldens pin what every output mode prints for each paper fixture,
// analyzed alone at -interproc 0 and 1. They cover the readers of a
// project's retained ASTs past the analysis itself: the lockset and
// diagnostics passes behind -sarif, the patch generator, the litmus
// validator and the pairing audit trail. Each (fixture, mode, depth) has one
// line in testdata/cli_golden.txt: the SHA-256 and line count of stdout, a
// short SHA-256 of stderr ("-" when empty) and the exit status. The
// wall-clock "ofence: extract …" line is masked before hashing. There is no
// update flag: an intended output change is a reviewed edit of the testdata
// file, using the observed line a failure prints.

// cliModes are the output modes the goldens run, each as its flag.
var cliModes = []string{"-json", "-sarif", "-patch", "-validate", "-explain", "-pairings"}

// timingLine is the text-mode line that reports wall-clock phase times.
var timingLine = regexp.MustCompile(`(?m)^ofence: extract .*$`)

// buildCLI compiles the ofence command into dir and returns its path.
func buildCLI(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "ofence")
	build := exec.Command(filepath.Join(runtime.GOROOT(), "bin", "go"), "build", "-o", bin, "ofence/cmd/ofence")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// cliRecord renders one run as its golden record.
func cliRecord(stdout, stderr []byte, exit int) string {
	masked := timingLine.ReplaceAll(stdout, []byte("ofence: extract <masked>"))
	sum := sha256.Sum256(masked)
	errSum := "-"
	if len(stderr) > 0 {
		s := sha256.Sum256(stderr)
		errSum = hex.EncodeToString(s[:8])
	}
	return fmt.Sprintf("%s lines=%d stderr=%s exit=%d",
		hex.EncodeToString(sum[:]), bytes.Count(masked, []byte("\n")), errSum, exit)
}

// loadCLIGoldens reads testdata/cli_golden.txt: "name record" lines, #
// comments allowed.
func loadCLIGoldens(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open("testdata/cli_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, rec, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("testdata/cli_golden.txt: malformed line %q", line)
		}
		out[name] = rec
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCLIGoldens builds the CLI and runs every output mode over each paper
// fixture at -interproc 0 and 1, comparing each run with its golden record.
func TestCLIGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the CLI")
	}
	dir := t.TempDir()
	bin := buildCLI(t, dir)
	goldens := loadCLIGoldens(t)
	for _, fx := range corpus.Fixtures() {
		if err := os.WriteFile(filepath.Join(dir, fx.Name), []byte(fx.Source), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, mode := range cliModes {
			for depth := 0; depth <= 1; depth++ {
				name := fmt.Sprintf("%s/%s/interproc%d", fx.Name, strings.TrimPrefix(mode, "-"), depth)
				var stdout, stderr bytes.Buffer
				cmd := exec.Command(bin, mode, "-interproc", fmt.Sprint(depth), fx.Name)
				cmd.Dir = dir
				cmd.Stdout, cmd.Stderr = &stdout, &stderr
				exit := 0
				if err := cmd.Run(); err != nil {
					var ee *exec.ExitError
					if !errors.As(err, &ee) {
						t.Fatalf("%s: %v", name, err)
					}
					exit = ee.ExitCode()
				}
				got := cliRecord(stdout.Bytes(), stderr.Bytes(), exit)
				switch want, ok := goldens[name]; {
				case !ok:
					t.Errorf("no golden record; observed:\n%s %s", name, got)
				case got != want:
					t.Errorf("output moved from the golden record\n want: %s %s\n  got: %s %s\nstdout:\n%s\nstderr:\n%s",
						name, want, name, got, stdout.String(), stderr.String())
				}
			}
		}
	}
}
