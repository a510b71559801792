package ofence

import (
	"strings"
	"testing"
	"time"

	"ofence/internal/access"
	"ofence/internal/memmodel"
)

func analyze(t *testing.T, srcs map[string]string) *Result {
	t.Helper()
	p := NewProject()
	for name, src := range srcs {
		p.AddSource(name, src)
	}
	res := mustAnalyze(t, p, DefaultOptions())
	for _, err := range res.ParseErrors {
		t.Fatalf("parse error: %v", err)
	}
	return res
}

func one(t *testing.T, src string) *Result {
	t.Helper()
	return analyze(t, map[string]string{"test.c": src})
}

func findings(res *Result, kind FindingKind) []*Finding {
	var out []*Finding
	for _, f := range res.Findings {
		if f.Kind == kind {
			out = append(out, f)
		}
	}
	return out
}

// Listing 1: the textbook correct pattern. Must pair; no deviations.
const listing1 = `
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

func TestPairingListing1(t *testing.T) {
	res := one(t, listing1)
	if len(res.Pairings) != 1 {
		t.Fatalf("pairings = %d, want 1", len(res.Pairings))
	}
	pg := res.Pairings[0]
	if len(pg.Sites) != 2 {
		t.Fatalf("pairing sites = %d", len(pg.Sites))
	}
	if pg.Writer().Fn.Name != "writer" {
		t.Errorf("writer side = %s", pg.Writer().Fn.Name)
	}
	if pg.Readers()[0].Fn.Name != "reader" {
		t.Errorf("reader side = %s", pg.Readers()[0].Fn.Name)
	}
	if len(pg.Common) != 2 {
		t.Errorf("common objects = %v", pg.Common)
	}
	for _, k := range []FindingKind{MisplacedAccess, WrongBarrierType, RepeatedRead, UnneededBarrier} {
		if fs := findings(res, k); len(fs) != 0 {
			t.Errorf("unexpected %v findings: %v", k, fs)
		}
	}
}

func TestPairingAcrossFiles(t *testing.T) {
	res := analyze(t, map[string]string{
		"reader.c": `
struct my_struct { int init; int y; };
void reader(struct my_struct *a) {
	if (!a->init)
		return;
	smp_rmb();
	f(a->y);
}`,
		"writer.c": `
struct my_struct { int init; int y; };
void writer(struct my_struct *b) {
	b->y = 1;
	smp_wmb();
	b->init = 1;
}`,
	})
	if len(res.Pairings) != 1 {
		t.Fatalf("cross-file pairings = %d, want 1", len(res.Pairings))
	}
}

func TestNoPairingWithOneSharedObject(t *testing.T) {
	// Only one common object: below the MinSharedObjects=2 threshold.
	res := one(t, `
struct s { int a; };
struct t { int q; int r; };
void w(struct s *p, struct t *u) {
	p->a = 1;
	u->q = 2;
	smp_wmb();
	u->r = 3;
}
void r(struct s *p) {
	if (!p->a)
		return;
	smp_rmb();
	g();
}`)
	if len(res.Pairings) != 0 {
		t.Fatalf("pairings = %v, want none", res.Pairings)
	}
	if len(res.Unpaired) != 2 {
		t.Errorf("unpaired = %d, want 2", len(res.Unpaired))
	}
}

func TestNoPairingWithoutOrdering(t *testing.T) {
	// Both objects on the same side of both barriers: no ordering, no pair.
	res := one(t, `
struct s { int a; int b; };
void w(struct s *p) {
	smp_wmb();
	p->a = 1;
	p->b = 2;
}
void r(struct s *p) {
	smp_rmb();
	use(p->a, p->b);
}`)
	if len(res.Pairings) != 0 {
		t.Fatalf("pairings = %v, want none (no barrier orders the objects)", res.Pairings)
	}
}

func TestGenericStructsFiltered(t *testing.T) {
	// Objects on generic types (list_head) never participate in pairing.
	res := one(t, `
struct list_head { struct list_head *next; struct list_head *prev; };
void w(struct list_head *l) {
	l->next = 0;
	smp_wmb();
	l->prev = 0;
}
void r(struct list_head *l) {
	if (!l->prev)
		return;
	smp_rmb();
	use(l->next);
}`)
	if len(res.Pairings) != 0 {
		t.Fatalf("generic-type pairing not filtered: %v", res.Pairings)
	}
}

// Patch 1: the RPC misplaced memory access.
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

func TestPatch1MisplacedAccess(t *testing.T) {
	res := one(t, rpcSrc)
	if len(res.Pairings) != 1 {
		t.Fatalf("pairings = %d, want 1", len(res.Pairings))
	}
	ms := findings(res, MisplacedAccess)
	if len(ms) != 1 {
		t.Fatalf("misplaced findings = %v", res.Findings)
	}
	f := ms[0]
	if f.Object != (access.Object{Struct: "rpc_rqst", Field: "rq_reply_bytes_recd"}) {
		t.Errorf("object = %v", f.Object)
	}
	if f.Site.Fn.Name != "call_decode" {
		t.Errorf("finding on %s, want call_decode (bias: move the read)", f.Site.Fn.Name)
	}
	if f.Access == nil || f.Access.Kind != access.Load {
		t.Errorf("offending access = %+v", f.Access)
	}
}

func TestPatch1FixedNoFinding(t *testing.T) {
	// The patched code (check before the barrier) must be clean.
	fixed := `
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
	if (!req->rq_reply_bytes_recd)
		goto out;
	smp_rmb();
	req->rq_rcv_buf.len = req->rq_private_buf.len;
out:
	return;
}`
	res := one(t, fixed)
	if len(res.Pairings) != 1 {
		t.Fatalf("pairings = %d, want 1", len(res.Pairings))
	}
	if ms := findings(res, MisplacedAccess); len(ms) != 0 {
		t.Errorf("fixed code still flagged: %v", ms)
	}
}

// Patch 3: reuseport re-read after the barrier.
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

func TestPatch3RepeatedRead(t *testing.T) {
	res := one(t, reuseportSrc)
	if len(res.Pairings) != 1 {
		t.Fatalf("pairings = %d, want 1: %v", len(res.Pairings), res.Unpaired)
	}
	rr := findings(res, RepeatedRead)
	if len(rr) == 0 {
		t.Fatalf("no repeated-read finding: %v", res.Findings)
	}
	f := rr[0]
	if f.Object != (access.Object{Struct: "sock_reuseport", Field: "num_socks"}) {
		t.Errorf("object = %v", f.Object)
	}
	if f.Site.Fn.Name != "reuseport_select_sock" {
		t.Errorf("finding on %s", f.Site.Fn.Name)
	}
	if f.FirstAccess == nil || !f.FirstAccess.Before || f.Access == nil || f.Access.Before {
		t.Errorf("first=%+v reread=%+v", f.FirstAccess, f.Access)
	}
}

func TestPatch3FixedNoFinding(t *testing.T) {
	fixed := `
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
	i = hash % num;
	return reuse->socks[i];
}`
	res := one(t, fixed)
	if rr := findings(res, RepeatedRead); len(rr) != 0 {
		t.Errorf("fixed code still flagged: %v", rr)
	}
}

// Patch 2 / Listing 2 shape: a condition reads a field which is then racily
// re-read on the same side of the barrier.
const sameSideReread = `
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

func TestPatch2SameSideReread(t *testing.T) {
	res := one(t, sameSideReread)
	rr := findings(res, RepeatedRead)
	found := false
	for _, f := range rr {
		if f.Object == (access.Object{Struct: "ectx", Field: "task"}) && f.Site.Fn.Name == "perf_apply" {
			found = true
			if f.FirstAccess == nil || f.Access == nil {
				t.Error("re-read finding lacks access pair")
			}
		}
	}
	if !found {
		t.Errorf("same-side re-read not flagged: findings=%v pairings=%v", res.Findings, res.Pairings)
	}
}

func TestPatch2FixedNoFinding(t *testing.T) {
	// Reusing the first value removes the finding.
	fixed := `
struct task { int pid; };
struct ectx { struct task *task; int state; };
void perf_apply(struct ectx *ctx) {
	struct task *t = ctx->task;
	if (!t)
		return;
	get_task_mm(t);
	smp_rmb();
	use(ctx->state);
}
void perf_write(struct ectx *ctx) {
	ctx->state = 1;
	smp_wmb();
	ctx->task = 0;
}`
	res := one(t, fixed)
	for _, f := range findings(res, RepeatedRead) {
		if f.Object == (access.Object{Struct: "ectx", Field: "task"}) {
			t.Errorf("fixed code still flagged: %v", f)
		}
	}
}

// Deviation #2: reader mistakenly uses smp_wmb.
func TestWrongBarrierType(t *testing.T) {
	res := one(t, `
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
}`)
	if len(res.Pairings) != 1 {
		t.Fatalf("pairings = %d, want 1", len(res.Pairings))
	}
	wt := findings(res, WrongBarrierType)
	if len(wt) != 1 {
		t.Fatalf("wrong-type findings = %v", res.Findings)
	}
	f := wt[0]
	if f.Site.Fn.Name != "r" || f.SuggestedBarrier != "smp_rmb" {
		t.Errorf("finding = %+v", f)
	}
}

// Patch 4: unneeded barrier before wake_up_process.
func TestPatch4UnneededBarrier(t *testing.T) {
	res := one(t, `
struct task_struct { int pid; };
struct rq_wait_data { int got_token; struct task_struct *task; };
int rq_qos_wake_function(struct rq_wait_data *data) {
	data->got_token = 1;
	smp_wmb();
	wake_up_process(data->task);
	return 1;
}`)
	ub := findings(res, UnneededBarrier)
	if len(ub) != 1 {
		t.Fatalf("unneeded findings = %v (unpaired=%v implicit=%v)", res.Findings, res.Unpaired, res.ImplicitIPC)
	}
	if ub[0].Site.Name != "smp_wmb" {
		t.Errorf("finding = %v", ub[0])
	}
}

func TestUnneededDoubleBarrier(t *testing.T) {
	res := one(t, `
struct s { int a; int b; };
void w(struct s *p) {
	p->a = 1;
	smp_wmb();
	smp_mb();
	p->b = 1;
}`)
	ub := findings(res, UnneededBarrier)
	if len(ub) == 0 {
		t.Fatalf("double barrier not flagged: %v", res.Findings)
	}
}

func TestNeededBarrierNotFlagged(t *testing.T) {
	res := one(t, listing1)
	if ub := findings(res, UnneededBarrier); len(ub) != 0 {
		t.Errorf("needed barrier flagged: %v", ub)
	}
}

// Implicit IPC: a writer whose wake-up is closer than any shared object is
// left unpaired even when a reader-looking function exists.
func TestImplicitIPCUnpairing(t *testing.T) {
	res := one(t, `
struct s { int a; int b; struct task_struct *t; };
void w(struct s *p) {
	p->a = 1;
	p->b = 2;
	smp_wmb();
	wake_up_process(p->t);
}
void r(struct s *p) {
	if (!p->b)
		return;
	smp_rmb();
	use(p->a);
}`)
	if len(res.ImplicitIPC) != 1 {
		t.Fatalf("implicit = %d, want 1 (pairings=%v)", len(res.ImplicitIPC), res.Pairings)
	}
	if len(res.Pairings) != 0 {
		t.Errorf("pairings = %v, want none", res.Pairings)
	}
}

// Figure 5 / Listing 3: the seqcount quad pairing, checked per duo.
const seqcountSrc = `
struct xt_counters { u64 bcnt; u64 pcnt; };
void do_add_counters(struct xt_counters *t, seqcount_t *s) {
	write_seqcount_begin(s);
	t->bcnt += 1;
	t->pcnt += 2;
	write_seqcount_end(s);
}
void get_counters(struct xt_counters *tmp, seqcount_t *s) {
	unsigned v;
	u64 bcnt, pcnt;
	do {
		v = read_seqcount_begin(s);
		bcnt = tmp->bcnt;
		pcnt = tmp->pcnt;
	} while (read_seqcount_retry(s, v));
	use(bcnt, pcnt);
}`

func TestSeqcountQuadPairing(t *testing.T) {
	res := one(t, seqcountSrc)
	if len(res.Pairings) != 1 {
		t.Fatalf("pairings = %d, want 1 quad (unpaired=%v)", len(res.Pairings), res.Unpaired)
	}
	pg := res.Pairings[0]
	if len(pg.Sites) != 4 {
		t.Fatalf("quad pairing has %d sites: %v", len(pg.Sites), pg)
	}
	// The correct seqcount protocol yields no deviations — the per-duo rule
	// of §5.3 is what prevents false positives here.
	for _, k := range []FindingKind{MisplacedAccess, WrongBarrierType, RepeatedRead} {
		if fs := findings(res, k); len(fs) != 0 {
			t.Errorf("seqcount flagged with %v: %v", k, fs)
		}
	}
}

// The bnx2x false-positive pattern (§6.4): a variable written on both sides
// of the barrier breaks the before/after assumption. We verify the analysis
// still pairs and reports deterministically (documented FP, not a crash).
func TestBnx2xPatternStillPairs(t *testing.T) {
	res := one(t, `
struct bnx2x { unsigned long sp_state; int other; };
void bnx2x_sp_event(struct bnx2x *bp) {
	bp->other = 1;
	bp->sp_state |= 2;
	smp_wmb();
	bp->sp_state &= 1;
}
void bnx2x_reader(struct bnx2x *bp) {
	if (!(bp->sp_state & 2))
		return;
	smp_rmb();
	use(bp->other);
}`)
	if len(res.Pairings) != 1 {
		t.Fatalf("pairings = %d, want 1", len(res.Pairings))
	}
}

// §7 extension: annotations.
func TestOnceAnnotationFindings(t *testing.T) {
	res := one(t, listing1)
	mo := findings(res, MissingOnce)
	if len(mo) == 0 {
		t.Fatal("no MissingOnce findings on unannotated pairing")
	}
	// All four accesses (2 writer stores, 2 reader loads) lack annotations.
	if len(mo) != 4 {
		t.Errorf("MissingOnce = %d, want 4: %v", len(mo), mo)
	}
	for _, f := range mo {
		if f.SuggestedBarrier != memmodel.ReadOnce && f.SuggestedBarrier != memmodel.WriteOnce {
			t.Errorf("suggestion = %q", f.SuggestedBarrier)
		}
	}
}

func TestOnceAnnotatedNotFlagged(t *testing.T) {
	res := one(t, `
struct my_struct { int init; int y; };
void reader(struct my_struct *a) {
	if (!READ_ONCE(a->init))
		return;
	smp_rmb();
	f(READ_ONCE(a->y));
}
void writer(struct my_struct *b) {
	WRITE_ONCE(b->y, 1);
	smp_wmb();
	WRITE_ONCE(b->init, 1);
}`)
	if len(res.Pairings) != 1 {
		t.Fatalf("pairings = %d", len(res.Pairings))
	}
	if mo := findings(res, MissingOnce); len(mo) != 0 {
		t.Errorf("annotated accesses flagged: %v", mo)
	}
}

func TestOnceCheckDisabled(t *testing.T) {
	p := NewProject()
	p.AddSource("t.c", listing1)
	opts := DefaultOptions()
	opts.CheckOnce = false
	res := mustAnalyze(t, p, opts)
	if mo := findings(res, MissingOnce); len(mo) != 0 {
		t.Errorf("CheckOnce=false still produced findings: %v", mo)
	}
}

// Lowest-weight pairing wins when a reader matches multiple writers.
func TestLowestWeightPairingWins(t *testing.T) {
	res := one(t, `
struct s { int flag; int data; };
void w_far(struct s *p) {
	p->data = 1;
	noise1();
	noise2();
	noise3();
	smp_wmb();
	noise4();
	p->flag = 1;
}
void w_near(struct s *p) {
	p->data = 2;
	smp_wmb();
	p->flag = 2;
}
void r(struct s *p) {
	if (!p->flag)
		return;
	smp_rmb();
	use(p->data);
}`)
	if len(res.Pairings) == 0 {
		t.Fatal("no pairings")
	}
	// r must be paired with w_near (lower distance product).
	var rPairing *Pairing
	for _, pg := range res.Pairings {
		for _, s := range pg.Sites {
			if s.Fn.Name == "r" {
				rPairing = pg
			}
		}
	}
	if rPairing == nil {
		t.Fatal("r not paired")
	}
	// The pairing core (first two sites) must be the low-weight w_near/r
	// match; w_far may only join later through the extension step (§4.2:
	// "when multiple matches are found, we only keep the pairing whose
	// shared objects are closest to the barriers").
	if rPairing.Sites[0].Fn.Name != "w_near" {
		t.Errorf("pairing origin = %s, want w_near", rPairing.Sites[0].Fn.Name)
	}
	if rPairing.Sites[1].Fn.Name != "r" {
		t.Errorf("pairing partner = %s, want r", rPairing.Sites[1].Fn.Name)
	}
}

func TestDeterministicResults(t *testing.T) {
	for i := 0; i < 5; i++ {
		res1 := one(t, rpcSrc+seqcountSrc)
		res2 := one(t, rpcSrc+seqcountSrc)
		if len(res1.Pairings) != len(res2.Pairings) || len(res1.Findings) != len(res2.Findings) {
			t.Fatalf("nondeterministic: %d/%d vs %d/%d",
				len(res1.Pairings), len(res1.Findings), len(res2.Pairings), len(res2.Findings))
		}
		for j := range res1.Findings {
			if res1.Findings[j].String() != res2.Findings[j].String() {
				t.Fatalf("finding %d differs:\n%s\n%s", j, res1.Findings[j], res2.Findings[j])
			}
		}
	}
}

func TestMultipleReadersJoinPairing(t *testing.T) {
	res := one(t, `
struct s { int flag; int data; };
void w(struct s *p) {
	p->data = 1;
	smp_wmb();
	p->flag = 1;
}
void r1(struct s *p) {
	if (!p->flag)
		return;
	smp_rmb();
	use(p->data);
}
void r2(struct s *p) {
	if (!p->flag)
		return;
	smp_rmb();
	use2(p->data);
}`)
	if len(res.Pairings) != 1 {
		t.Fatalf("pairings = %d, want 1 (both readers join)", len(res.Pairings))
	}
	if len(res.Pairings[0].Sites) != 3 {
		t.Errorf("pairing sites = %d, want 3: %v", len(res.Pairings[0].Sites), res.Pairings[0])
	}
}

func TestParseErrorsSurfaced(t *testing.T) {
	p := NewProject()
	p.AddSource("bad.c", "void f( {{{")
	res := mustAnalyze(t, p, DefaultOptions())
	if len(res.ParseErrors) == 0 {
		t.Error("parse errors not surfaced")
	}
}

// TestNestingBoundSkipsFile analyzes a file of 10^6 nested parentheses
// and one of 10^6 nested braces, each of which overflowed the parser's
// stack and killed the process: each analysis must return within a second
// (ten under the race detector) with the parser's nesting diagnostic as the
// file's one parse error. The same shapes 9,000 deep, just under the
// parser's 10,000-level cap, must analyze clean: every later stage that
// walks the AST recursively copes with the deepest file the parser keeps.
func TestNestingBoundSkipsFile(t *testing.T) {
	bound := time.Second
	if raceEnabled {
		bound *= 10
	}
	shapes := map[string]func(n int) string{
		"parens.c": func(n int) string {
			return "int f(void){ return " + strings.Repeat("(", n) + "1" + strings.Repeat(")", n) + "; }\n"
		},
		"braces.c": func(n int) string { return "void f(void) " + strings.Repeat("{", n) + strings.Repeat("}", n) + "\n" },
	}
	for name, src := range shapes {
		p := NewProject()
		p.AddSource(name, src(1_000_000))
		start := time.Now()
		res := mustAnalyze(t, p, DefaultOptions())
		if took := time.Since(start); took > bound {
			t.Errorf("%s: the analysis took %v, want under %v", name, took, bound)
		}
		if len(res.ParseErrors) != 1 || !strings.Contains(res.ParseErrors[0].Error(), "nesting exceeds 10000 levels; file skipped") {
			t.Errorf("%s: parse errors %v, want the nesting diagnostic", name, res.ParseErrors)
		}
		p = NewProject()
		p.AddSource(name, src(9_000))
		if res := mustAnalyze(t, p, DefaultOptions()); len(res.ParseErrors) != 0 {
			t.Errorf("%s, 9,000 deep: parse errors %v; want a clean analysis", name, res.ParseErrors)
		}
	}
}

func TestFindingString(t *testing.T) {
	res := one(t, rpcSrc)
	for _, f := range res.Findings {
		if f.String() == "" {
			t.Error("empty finding string")
		}
	}
	for _, pg := range res.Pairings {
		if pg.String() == "" {
			t.Error("empty pairing string")
		}
	}
}
