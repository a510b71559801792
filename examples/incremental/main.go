// incremental demonstrates the development-loop workflow the paper measures
// in §6.1 (full kernel: 8 minutes; single-file re-analysis: under 30
// seconds): analyze a tree once, edit one file, re-analyze — only the edited
// file is re-extracted, everything else is served from cache.
//
// Run with: go run ./examples/incremental
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"ofence/internal/corpus"
	"ofence/internal/ofence"
)

const buggyReader = `
struct job { int data; int ready; };
void job_submit(struct job *j) {
	j->data = 42;
	smp_wmb();
	j->ready = 1;
}
void job_poll(struct job *j) {
	smp_rmb();
	if (!j->ready)
		return;
	consume(j->data);
}`

const fixedReader = `
struct job { int data; int ready; };
void job_submit(struct job *j) {
	j->data = 42;
	smp_wmb();
	j->ready = 1;
}
void job_poll(struct job *j) {
	if (!j->ready)
		return;
	smp_rmb();
	consume(j->data);
}`

func main() {
	// A realistic tree: the synthetic corpus plus one file we will edit.
	c := corpus.Generate(corpus.DefaultConfig(42))
	proj := ofence.NewProject()
	for _, name := range c.Order {
		proj.AddSource(name, c.Files[name])
	}
	proj.AddSource("drivers/job.c", buggyReader)
	opts := ofence.DefaultOptions()

	start := time.Now()
	res, err := proj.AnalyzeParallel(context.Background(), opts)
	if err != nil {
		log.Fatal(err)
	}
	full := time.Since(start)
	fmt.Printf("full analysis: %d files, %d sites, %d pairings, %d findings in %v\n",
		len(proj.Files()), len(res.Sites), len(res.Pairings), len(res.Findings), full)

	var jobFinding *ofence.Finding
	for _, f := range res.Findings {
		if f.Site.File == "drivers/job.c" && f.Kind == ofence.MisplacedAccess {
			jobFinding = f
		}
	}
	if jobFinding == nil {
		fmt.Println("BUG: job.c deviation not found")
		os.Exit(1)
	}
	fmt.Printf("\nfound in job.c: %s\n", jobFinding)

	// The developer fixes the file; re-analysis re-extracts only job.c.
	proj.ReplaceSource("drivers/job.c", fixedReader)
	start = time.Now()
	res, err = proj.AnalyzeParallel(context.Background(), opts)
	if err != nil {
		log.Fatal(err)
	}
	incr := time.Since(start)
	fmt.Printf("\nincremental re-analysis after the fix: %v (full run was %v)\n", incr, full)

	for _, f := range res.Findings {
		if f.Site.File == "drivers/job.c" && f.Kind == ofence.MisplacedAccess {
			fmt.Println("BUG: fix not recognized")
			os.Exit(1)
		}
	}
	fmt.Println("job.c is clean; all other files' results unchanged")
}
