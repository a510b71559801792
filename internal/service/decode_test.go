package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"testing"

	"ofence/internal/corpus"
)

// mixBody is a request of the benchmark's service_mix shape: 20 files of
// the default generated corpus, marshaled as every client marshals it.
func mixBody(tb testing.TB) []byte {
	tb.Helper()
	c := corpus.Generate(corpus.DefaultConfig(1))
	files := map[string]string{}
	for _, name := range c.Order[:20] {
		files[name] = c.Files[name]
	}
	body, err := json.Marshal(Request{Files: files})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// decodeCase is a body and whether the one-pass decoder reads it itself
// rather than handing it to encoding/json.
type decodeCase struct {
	name    string
	onePass bool
	body    string
}

func decodeCases(tb testing.TB) []decodeCase {
	mix := string(mixBody(tb))
	return []decodeCase{
		{"service_mix", true, mix},
		{"every key", true, `{"files":{"a.c":"int x;"},"defines":{"CONFIG_SMP":"1"},"options":{"interproc_depth":2,"inline_depth":0,"min_confidence":0.5},"wait":false}`},
		{"spaces", true, " {\n\t\"files\" : { \"a.c\" : \"x\" } ,\r\"wait\" : true } \n"},
		{"empty maps", true, `{"files":{},"defines":{}}`},
		{"empty object", true, `{}`},
		{"escapes", true, `{"files":{"a\"b.c":"\"\\\/\b\f\n\r\t\u003c\u003e\u0026\u00e9\u0000\u003C"}}`},
		{"bad escape", false, `{"files":{"a.c":"\x"}}`},
		{"bad hex", false, `{"files":{"a.c":"\u00zz"}}`},
		{"raw control byte", false, "{\"files\":{\"a.c\":\"a\tb\"}}"},
		{"surrogate pair", true, `{"files":{"a.c":"// \ud83d\ude00 \uD83D\uDE00"}}`},
		{"lone high surrogate", false, `{"files":{"a.c":"\ud83d x"}}`},
		{"lone low surrogate", false, `{"files":{"a.c":"\ude00"}}`},
		{"high high", false, `{"files":{"a.c":"\ud83d\ud83d"}}`},
		{"high then escape", false, `{"files":{"a.c":"\ud83d\n"}}`},
		{"high at end", false, `{"files":{"a.c":"\ud83d"}}`},
		{"utf-8", true, `{"files":{"é.c":"é€😀"}}`},
		{"invalid utf-8", false, "{\"files\":{\"a.c\":\"\xff\"}}"},
		{"cut utf-8", false, "{\"files\":{\"a.c\":\"\xe2\x82\"}}"},
		{"utf-8 surrogate", false, "{\"files\":{\"a.c\":\"\xed\xa0\x80\"}}"},
		{"invalid utf-8 key", false, "{\"files\":{\"\xc3(\":\"x\"}}"},
		{"Files", false, `{"Files":{"a.c":"x"}}`},
		{"folded key", false, `{"ſiles":{"a.c":"x"}}`},
		{"escaped key", true, `{"fil\u0065s":{"a.c":"x"}}`},
		{"duplicate files", false, `{"files":{"a.c":"1"},"files":{"b.c":"2"}}`},
		{"duplicate file", true, `{"files":{"a.c":"1","a.c":"2"}}`},
		{"duplicate options", false, `{"options":{"workers":1},"options":{"check_once":true}}`},
		{"duplicate wait", false, `{"wait":false,"wait":true}`},
		{"null", false, `null`},
		{"null files", false, `{"files":null}`},
		{"null file", false, `{"files":{"a.c":null}}`},
		{"null wait", false, `{"wait":null}`},
		{"null options", false, `{"options":null}`},
		{"unknown key", false, `{"files":{"a.c":"x"},"extra":{"deep":[1,{"x":"y"}]}}`},
		{"unknown option", true, `{"options":{"unknown":{"a":[1,"}"]},"workers":2}}`},
		{"brackets in option", true, `{"options":{"x":"}{][\"\\"},"files":{}}`},
		{"mismatched option", false, `{"options":{"a":[1}]}`},
		{"option type", false, `{"options":{"workers":"x"}}`},
		{"option exponent", false, `{"options":{"workers":1e2}}`},
		{"file type", false, `{"files":{"a.c":1}}`},
		{"files array", false, `{"files":[]}`},
		{"wait type", false, `{"wait":1}`},
		{"wait prefix", false, `{"wait":truex}`},
		{"trailing value", false, `{"files":{}} {}`},
		{"trailing byte", false, `{"files":{}}x`},
		{"trailing brace", false, `{"files":{}}}`},
		{"trailing comma", false, `{"wait":true,}`},
		{"lone comma", false, `{,}`},
		{"truncated mix", false, mix[:len(mix)/2]},
		{"truncated string", false, `{"files":{"a.c":"abc`},
		{"truncated escape", false, `{"files":{"a.c":"abc\`},
		{"truncated value", false, `{"files":`},
		{"empty", false, ``},
		{"blank", false, " \n"},
	}
}

// decodeReference is decodeJSON's contract spelled out: encoding/json's
// decoder and a check for trailing data.
func decodeReference(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after the JSON value")
	}
	return nil
}

// checkDecodeAnalyze fails when decodeAnalyze and the reference differ on
// body, in the value or in the error text.
func checkDecodeAnalyze(t *testing.T, body []byte) {
	t.Helper()
	var want, got analyzeRequest
	wantErr := decodeReference(body, &want)
	gotErr := decodeAnalyze(body, &got)
	if errText(gotErr) != errText(wantErr) {
		t.Fatalf("body %q: error %q, encoding/json says %q", body, errText(gotErr), errText(wantErr))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("body %q: decoded %+v, encoding/json decodes %+v", body, got, want)
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func TestDecodeAnalyzeMatchesEncodingJSON(t *testing.T) {
	for _, c := range decodeCases(t) {
		t.Run(c.name, func(t *testing.T) {
			checkDecodeAnalyze(t, []byte(c.body))
			d := bodyDecoder{b: []byte(c.body)}
			if got := d.request(&analyzeRequest{}); got != c.onePass {
				t.Errorf("read in one pass: %t, want %t", got, c.onePass)
			}
		})
	}
}

// TestDecodeAnalyzeCopiesStrings: no decoded string may share memory with
// the body, which would stay alive as long as a warm lineage keeps the
// source.
func TestDecodeAnalyzeCopiesStrings(t *testing.T) {
	body := mixBody(t)
	var req analyzeRequest
	if err := decodeAnalyze(body, &req); err != nil {
		t.Fatal(err)
	}
	for i := range body {
		body[i] = 0
	}
	var want analyzeRequest
	if err := json.Unmarshal(mixBody(t), &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(req, want) {
		t.Fatal("decoded strings changed with the body: they alias it")
	}
}

func FuzzDecodeAnalyze(f *testing.F) {
	for _, c := range decodeCases(f) {
		f.Add([]byte(c.body))
	}
	f.Fuzz(checkDecodeAnalyze)
}

// BenchmarkDecodeAnalyze decodes a service_mix-shaped body with the
// one-pass decoder and with encoding/json.
func BenchmarkDecodeAnalyze(b *testing.B) {
	body := mixBody(b)
	for _, c := range []struct {
		name   string
		decode func([]byte, *analyzeRequest) error
	}{
		{"one-pass", decodeAnalyze},
		{"encoding-json", func(body []byte, req *analyzeRequest) error {
			return decodeJSON(bytes.NewReader(body), req)
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for range b.N {
				var req analyzeRequest
				if err := c.decode(body, &req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
