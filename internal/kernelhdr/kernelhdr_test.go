package kernelhdr

import (
	"context"
	"testing"

	"ofence/internal/cast"
	"ofence/internal/cparser"
	"ofence/internal/cpp"
	"ofence/internal/ofence"
)

func TestHeadersParseStandalone(t *testing.T) {
	hdrs := Headers()
	for path, src := range hdrs {
		_, errs := cparser.ParseSource(path, src, cpp.Options{Include: hdrs})
		for _, err := range errs {
			t.Errorf("%s: %v", path, err)
		}
	}
}

func TestIncludeGuardsIdempotent(t *testing.T) {
	src := `
#include <linux/types.h>
#include <linux/types.h>
#include <linux/kernel.h>
u32 v;`
	f, errs := cparser.ParseSource("t.c", src, cpp.Options{Include: Headers()})
	for _, err := range errs {
		t.Fatalf("parse: %v", err)
	}
	// The include guards must make the second inclusion a no-op: the
	// list_head struct is declared exactly once.
	listHeads := 0
	for _, sd := range f.Structs() {
		if sd.Tag == "list_head" {
			listHeads++
		}
	}
	if listHeads != 1 {
		t.Errorf("list_head declared %d times, want 1", listHeads)
	}
	// The u32 typedef from the header types the trailing variable.
	var sawVar bool
	for _, d := range f.Decls {
		if vd, ok := d.(*cast.VarDecl); ok && vd.Name == "v" {
			sawVar = true
			if vd.Type.Name != "u32" {
				t.Errorf("v typed %q", vd.Type.Name)
			}
		}
	}
	if !sawVar {
		t.Error("variable v not parsed")
	}
}

func TestFullDriverShapedFile(t *testing.T) {
	src := `
#include <linux/kernel.h>
#include <linux/types.h>
#include <linux/sched.h>
#include <linux/seqlock.h>
#include <linux/rcupdate.h>
#include <asm/barrier.h>

struct mydev {
	u64 stats;
	int ready;
	struct task_struct *waiter;
	seqcount_t seq;
};

static void mydev_publish(struct mydev *d) {
	d->stats = 1;
	smp_wmb();
	d->ready = 1;
}

static void mydev_poll(struct mydev *d) {
	if (!d->ready)
		return;
	smp_rmb();
	printk("%llu", d->stats);
}
`
	proj := ofence.NewProject()
	Register(proj)
	proj.AddSource("drivers/mydev.c", src)
	res, err := proj.AnalyzeParallel(context.Background(), ofence.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, err := range res.ParseErrors {
		t.Fatalf("parse: %v", err)
	}
	if len(res.Sites) != 2 {
		t.Fatalf("sites = %d", len(res.Sites))
	}
	if len(res.Pairings) != 1 {
		t.Fatalf("pairings = %d", len(res.Pairings))
	}
	for _, f := range res.Findings {
		if f.Kind != ofence.MissingOnce {
			t.Errorf("clean driver flagged: %v", f)
		}
	}
}

func TestRcuMacrosExpandThroughHeaders(t *testing.T) {
	src := `
#include <linux/rcupdate.h>
struct cfg { int v; };
struct holder { struct cfg *cur; };
void swap_cfg(struct holder *h, struct cfg *next) {
	rcu_assign_pointer(h->cur, next);
}
`
	proj := ofence.NewProject()
	Register(proj)
	proj.AddSource("rcu_user.c", src)
	res, err := proj.AnalyzeParallel(context.Background(), ofence.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, err := range res.ParseErrors {
		t.Fatalf("parse: %v", err)
	}
	// rcu_assign_pointer expands to smp_store_release: one barrier site.
	if len(res.Sites) != 1 || res.Sites[0].Name != "smp_store_release" {
		t.Fatalf("sites = %v", res.Sites)
	}
}

func TestMissingHeaderSkipped(t *testing.T) {
	src := `
#include <linux/nonexistent.h>
#include <asm/barrier.h>
struct s { int a; int b; };
void w(struct s *p) {
	p->a = 1;
	smp_wmb();
	p->b = 1;
}
`
	proj := ofence.NewProject()
	Register(proj)
	proj.AddSource("t.c", src)
	res, err := proj.AnalyzeParallel(context.Background(), ofence.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, err := range res.ParseErrors {
		t.Fatalf("parse: %v", err)
	}
	if len(res.Sites) != 1 {
		t.Fatalf("sites = %d", len(res.Sites))
	}
}
