package ofence

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestResultView(t *testing.T) {
	res := one(t, rpcSrc)
	v := res.View()
	if v.Sites != 2 {
		t.Errorf("sites = %d", v.Sites)
	}
	if len(v.Pairings) != 1 {
		t.Fatalf("pairings = %d", len(v.Pairings))
	}
	pg := v.Pairings[0]
	if len(pg.Sites) != 2 || len(pg.Common) == 0 {
		t.Errorf("pairing view = %+v", pg)
	}
	found := false
	for _, f := range v.Findings {
		if f.Kind == "misplaced memory access" {
			found = true
			if f.Function != "call_decode" || f.Object == nil || f.Object.Field != "rq_reply_bytes_recd" {
				t.Errorf("finding view = %+v", f)
			}
		}
	}
	if !found {
		t.Error("misplaced finding missing from view")
	}
}

func TestResultViewMarshals(t *testing.T) {
	res := one(t, rpcSrc)
	data, err := json.MarshalIndent(res.View(), "", "  ")
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	s := string(data)
	for _, want := range []string{`"barrier_sites": 2`, `"kind": "misplaced memory access"`, `"struct": "rpc_rqst"`} {
		if !strings.Contains(s, want) {
			t.Errorf("JSON missing %s:\n%s", want, s)
		}
	}
	// Round trip.
	var back ResultView
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.Sites != 2 || len(back.Findings) != len(res.Findings) {
		t.Errorf("round trip lost data: %+v", back)
	}
}

func TestResultViewParseErrors(t *testing.T) {
	p := NewProject()
	p.AddSource("bad.c", "void f( {{{")
	res := mustAnalyze(t, p, DefaultOptions())
	v := res.View()
	if len(v.ParseErrors) == 0 {
		t.Error("parse errors missing from view")
	}
}
