package patch

import (
	"context"
	"strings"
	"testing"

	"ofence/internal/ofence"
)

func analyzeOne(t *testing.T, src string) *ofence.Result {
	t.Helper()
	p := ofence.NewProject()
	p.AddSource("test.c", src)
	res, err := p.AnalyzeParallel(context.Background(), ofence.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, err := range res.ParseErrors {
		t.Fatalf("parse error: %v", err)
	}
	return res
}

func firstOf(t *testing.T, res *ofence.Result, kind ofence.FindingKind) *ofence.Finding {
	t.Helper()
	for _, f := range res.Findings {
		if f.Kind == kind {
			return f
		}
	}
	t.Fatalf("no %v finding in %v", kind, res.Findings)
	return nil
}

const rpcSrc = `
struct xbuf { int len; };
struct rpc_rqst {
	struct xbuf rq_private_buf;
	struct xbuf rq_rcv_buf;
	int rq_reply_bytes_recd;
};
void xprt_complete_rqst(struct rpc_rqst *req, int copied) {
	req->rq_private_buf.len = copied;
	smp_wmb();
	req->rq_reply_bytes_recd = copied;
}
void call_decode(struct rpc_rqst *req) {
	smp_rmb();
	if (!req->rq_reply_bytes_recd)
		goto out;
	req->rq_rcv_buf.len = req->rq_private_buf.len;
out:
	return;
}`

func TestMoveReadPatch(t *testing.T) {
	res := analyzeOne(t, rpcSrc)
	f := firstOf(t, res, ofence.MisplacedAccess)
	p, err := Generate(f)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if p.Function != "call_decode" {
		t.Errorf("function = %s", p.Function)
	}
	// The fixed function must check the flag BEFORE the barrier.
	idxCheck := strings.Index(p.After, "rq_reply_bytes_recd")
	idxBarrier := strings.Index(p.After, "smp_rmb")
	if idxCheck < 0 || idxBarrier < 0 || idxCheck > idxBarrier {
		t.Errorf("check not moved before barrier:\n%s", p.After)
	}
	if !strings.Contains(p.Diff, "-") || !strings.Contains(p.Diff, "+") {
		t.Errorf("diff looks empty:\n%s", p.Diff)
	}
	if !strings.Contains(p.Rationale, "(struct rpc_rqst, field rq_reply_bytes_recd)") {
		t.Errorf("rationale lacks pairing objects:\n%s", p.Rationale)
	}
	if !strings.Contains(p.String(), "misplaced memory access") {
		t.Errorf("patch header missing kind:\n%s", p.String())
	}
}

func TestMovedCodeStillAnalyzesClean(t *testing.T) {
	// Applying the generated fix and re-analyzing must remove the finding:
	// the analysis validates its own patches.
	res := analyzeOne(t, rpcSrc)
	f := firstOf(t, res, ofence.MisplacedAccess)
	p, err := Generate(f)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	// Rebuild the file with the fixed reader.
	fixedSrc := `
struct xbuf { int len; };
struct rpc_rqst {
	struct xbuf rq_private_buf;
	struct xbuf rq_rcv_buf;
	int rq_reply_bytes_recd;
};
void xprt_complete_rqst(struct rpc_rqst *req, int copied) {
	req->rq_private_buf.len = copied;
	smp_wmb();
	req->rq_reply_bytes_recd = copied;
}
` + p.After
	res2 := analyzeOne(t, fixedSrc)
	for _, f2 := range res2.Findings {
		if f2.Kind == ofence.MisplacedAccess {
			t.Errorf("patched code still flagged: %v", f2)
		}
	}
}

const reuseportSrc = `
struct sock { int dummy; };
struct sock_reuseport { struct sock *socks[16]; int num_socks; };
int reuseport_add_sock(struct sock_reuseport *reuse, struct sock *sk) {
	reuse->socks[reuse->num_socks] = sk;
	smp_wmb();
	reuse->num_socks++;
	return 0;
}
struct sock *reuseport_select_sock(struct sock_reuseport *reuse, unsigned hash) {
	int num = reuse->num_socks;
	int i;
	if (!num)
		return 0;
	smp_rmb();
	i = hash % reuse->num_socks;
	return reuse->socks[i];
}`

func TestReuseValuePatch(t *testing.T) {
	res := analyzeOne(t, reuseportSrc)
	f := firstOf(t, res, ofence.RepeatedRead)
	p, err := Generate(f)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	// The re-read must be replaced by the local "num".
	if !strings.Contains(p.After, "hash % num") {
		t.Errorf("re-read not replaced with local:\n%s", p.After)
	}
	// The first read stays.
	if !strings.Contains(p.After, "int num = reuse->num_socks") {
		t.Errorf("first read lost:\n%s", p.After)
	}
}

func TestReuseValueSynthesizedLocal(t *testing.T) {
	// Listing 2 shape: the first read is inside a condition, so the patch
	// must introduce a local.
	src := `
struct task { int pid; };
struct ectx { struct task *task; int state; };
void perf_apply(struct ectx *ctx) {
	if (!ctx->task)
		return;
	get_task_mm(ctx->task);
	smp_rmb();
	use(ctx->state);
}
void perf_write(struct ectx *ctx) {
	ctx->state = 1;
	smp_wmb();
	ctx->task = 0;
}`
	res := analyzeOne(t, src)
	f := firstOf(t, res, ofence.RepeatedRead)
	p, err := Generate(f)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if !strings.Contains(p.After, "val_task = ctx->task") {
		t.Errorf("local not synthesized:\n%s", p.After)
	}
	if !strings.Contains(p.After, "get_task_mm(val_task)") {
		t.Errorf("re-read not redirected to local:\n%s", p.After)
	}
}

func TestReplaceBarrierPatch(t *testing.T) {
	src := `
struct s { int flag; int data; };
void w(struct s *p) {
	p->data = 1;
	smp_wmb();
	p->flag = 1;
}
void r(struct s *p) {
	if (!p->flag)
		return;
	smp_wmb();
	use(p->data);
}`
	res := analyzeOne(t, src)
	f := firstOf(t, res, ofence.WrongBarrierType)
	p, err := Generate(f)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if !strings.Contains(p.After, "smp_rmb()") {
		t.Errorf("barrier not replaced:\n%s", p.After)
	}
	if strings.Contains(p.After, "smp_wmb()") {
		t.Errorf("old barrier still present in reader:\n%s", p.After)
	}
}

func TestRemoveBarrierPatch(t *testing.T) {
	src := `
struct task_struct { int pid; };
struct rq_wait_data { int got_token; struct task_struct *task; };
int rq_qos_wake_function(struct rq_wait_data *data) {
	data->got_token = 1;
	smp_wmb();
	wake_up_process(data->task);
	return 1;
}`
	res := analyzeOne(t, src)
	f := firstOf(t, res, ofence.UnneededBarrier)
	p, err := Generate(f)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if strings.Contains(p.After, "smp_wmb") {
		t.Errorf("barrier not removed:\n%s", p.After)
	}
	if !strings.Contains(p.After, "wake_up_process") {
		t.Errorf("wake-up call lost:\n%s", p.After)
	}
	if !strings.Contains(p.Rationale, "wake_up_process") {
		t.Errorf("rationale lacks the covering function:\n%s", p.Rationale)
	}
}

func TestAnnotateOncePatches(t *testing.T) {
	src := `
struct my_struct { int init; int y; };
void reader(struct my_struct *a) {
	if (!a->init)
		return;
	smp_rmb();
	f(a->y);
}
void writer(struct my_struct *b) {
	b->y = 1;
	smp_wmb();
	b->init = 1;
}`
	res := analyzeOne(t, src)
	var loads, stores int
	for _, f := range res.Findings {
		if f.Kind != ofence.MissingOnce {
			continue
		}
		p, err := Generate(f)
		if err != nil {
			t.Errorf("Generate(%v): %v", f, err)
			continue
		}
		if strings.Contains(p.After, "READ_ONCE(") {
			loads++
		}
		if strings.Contains(p.After, "WRITE_ONCE(") {
			stores++
		}
	}
	if loads == 0 || stores == 0 {
		t.Errorf("annotation patches: loads=%d stores=%d", loads, stores)
	}
}

func TestGenerateAll(t *testing.T) {
	res := analyzeOne(t, rpcSrc)
	patches, failed := GenerateAll(res.Findings)
	if len(patches) == 0 {
		t.Error("no patches generated")
	}
	for _, p := range patches {
		if p.Diff == "" {
			t.Errorf("empty diff for %v", p.Finding)
		}
	}
	_ = failed // some MissingOnce fixes may legitimately fail on this input
}

func TestUnifiedDiff(t *testing.T) {
	before := "a\nb\nc\nd\ne\nf\ng\n"
	after := "a\nb\nc\nX\ne\nf\ng\n"
	d := Unified("t", before, after)
	if !strings.Contains(d, "-d") || !strings.Contains(d, "+X") {
		t.Errorf("diff:\n%s", d)
	}
	if !strings.Contains(d, "--- a/t") || !strings.Contains(d, "+++ b/t") {
		t.Errorf("missing header:\n%s", d)
	}
	if !strings.Contains(d, "@@ -1,7 +1,7 @@") {
		t.Errorf("hunk header wrong:\n%s", d)
	}
}

func TestUnifiedDiffIdentical(t *testing.T) {
	if d := Unified("t", "same\n", "same\n"); d != "" {
		t.Errorf("identical inputs produced diff:\n%s", d)
	}
}

func TestUnifiedDiffAddRemoveAtEnds(t *testing.T) {
	d := Unified("t", "b\nc\n", "a\nb\nc\nd\n")
	if !strings.Contains(d, "+a") || !strings.Contains(d, "+d") {
		t.Errorf("diff:\n%s", d)
	}
	d = Unified("t", "a\nb\nc\n", "b\n")
	if !strings.Contains(d, "-a") || !strings.Contains(d, "-c") {
		t.Errorf("diff:\n%s", d)
	}
}

func TestUnifiedDiffTwoHunks(t *testing.T) {
	var a, b strings.Builder
	for i := 0; i < 30; i++ {
		line := string(rune('a' + i%26))
		a.WriteString(line + "\n")
		if i == 2 {
			b.WriteString("FIRST\n")
		} else if i == 27 {
			b.WriteString("SECOND\n")
		} else {
			b.WriteString(line + "\n")
		}
	}
	d := Unified("t", a.String(), b.String())
	if strings.Count(d, "@@") != 4 { // two hunks, each with one @@...@@ line
		t.Errorf("expected 2 hunks:\n%s", d)
	}
}
