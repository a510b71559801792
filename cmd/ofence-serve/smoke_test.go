package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// syncBuffer collects a child process's stderr.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

const smokeSrc = `
struct box { int flag; int data; };
void box_pub(struct box *b) {
	b->data = 41;
	smp_wmb();
	b->flag = 1;
}
void box_sub(struct box *b) {
	smp_rmb();
	if (!b->flag)
		return;
	use(b->data);
}`

// TestDaemonSmoke builds the real ofence-serve and ofence-worker binaries
// and runs them together: a coordinator with no in-process workers and
// one external worker holding the token. A fixture ends done, its repeat
// is a cache hit, a one-file edit is a warm-lineage hit, the store refuses
// a request without the token, and SIGTERM drains cleanly.
func TestDaemonSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs both daemons")
	}
	dir := t.TempDir()
	goBin := filepath.Join(runtime.GOROOT(), "bin", "go")
	for _, name := range []string{"ofence-serve", "ofence-worker"} {
		build := exec.Command(goBin, "build", "-o", filepath.Join(dir, name), "ofence/cmd/"+name)
		if out, err := build.CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", name, err, out)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	base := "http://" + addr

	var serveLog, workerLog syncBuffer
	serve := exec.Command(filepath.Join(dir, "ofence-serve"), "-addr", addr, "-workers", "-1", "-fleet-token", "T")
	serve.Stderr = &serveLog
	if err := serve.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = serve.Process.Kill(); _ = serve.Wait() })
	worker := exec.Command(filepath.Join(dir, "ofence-worker"), "-coordinator", base, "-token", "T")
	worker.Stderr = &workerLog
	if err := worker.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = worker.Process.Kill(); _ = worker.Wait() })

	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("ofence-serve never became healthy: %v\n%s", err, serveLog.String())
		}
		time.Sleep(50 * time.Millisecond)
	}

	type view struct {
		State    string `json:"state"`
		CacheHit bool   `json:"cache_hit"`
		Error    string `json:"error"`
	}
	analyze := func(files map[string]string) view {
		t.Helper()
		body, _ := json.Marshal(map[string]any{"files": files})
		resp, err := http.Post(base+"/v1/analyze", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var v view
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /v1/analyze: %d %v", resp.StatusCode, err)
		}
		return v
	}
	metric := func(name string) float64 {
		t.Helper()
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		text, _ := io.ReadAll(resp.Body)
		for _, line := range strings.Split(string(text), "\n") {
			if v, ok := strings.CutPrefix(line, name+" "); ok {
				f, _ := strconv.ParseFloat(v, 64)
				return f
			}
		}
		t.Fatalf("metric %s not exposed", name)
		return 0
	}

	files := map[string]string{"a.c": smokeSrc, "b.c": strings.ReplaceAll(smokeSrc, "box", "crate")}
	if v := analyze(files); v.State != "done" || v.CacheHit {
		t.Fatalf("fixture: %+v\nserve:\n%s\nworker:\n%s", v, serveLog.String(), workerLog.String())
	}
	if v := analyze(files); v.State != "done" || !v.CacheHit {
		t.Fatalf("repeat: %+v, want a cache hit", v)
	}
	files["b.c"] = strings.ReplaceAll(files["b.c"], "41", "42")
	if v := analyze(files); v.State != "done" || v.CacheHit {
		t.Fatalf("edit: %+v", v)
	}
	if got := metric("ofence_lineage_hits_total"); got < 1 {
		t.Errorf("ofence_lineage_hits_total = %g after a one-file edit, want >= 1", got)
	}
	if got := metric("ofence_files_reused_total"); got < 1 {
		t.Errorf("ofence_files_reused_total = %g after a one-file edit, want > 0", got)
	}

	// The fleet token mounts the worker protocol only; there is no artifact
	// store endpoint.
	resp, err := http.Get(base + "/v1/store/x")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /v1/store/x: %d, want 404", resp.StatusCode)
	}

	if err := serve.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- serve.Wait() }()
	select {
	case err := <-exited:
		if err != nil {
			t.Errorf("ofence-serve exited with %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("ofence-serve did not exit after SIGTERM")
	}
	if !strings.Contains(serveLog.String(), "drained cleanly") {
		t.Errorf("ofence-serve log lacks %q:\n%s", "drained cleanly", serveLog.String())
	}
}
