package ofence

import (
	"slices"
	"strings"
	"testing"

	"ofence/internal/access"
	"ofence/internal/pages"
	"ofence/internal/sitegen"
)

// TestPairRecordSharesPages edits one file of a 256-file generated tree at
// depth 0 and checks which pages of the pair record the next run copied.
// After a literal edit, every candidate and pairingOf page whose site
// range holds none of the file's sites, and every index page none of
// whose postings is one of them, must be the previous record's. After an
// edit that appends a barrier to the file, every candidate and pairingOf
// page before the one holding the file's first site must be the previous
// record's too, while the sites after it move up by one. A barrier
// inserted before a reader whose writer is in an earlier file makes the
// edit extract that reader again, as it does every site of the file, so
// the writer's page is copied even though it precedes the file. A new
// file moves the sites past it, so a page before it that names one of
// them is copied too. After every edit each copied page must be one the design copies
// (checkCopies), and the run must equal a cold analysis.
func TestPairRecordSharesPages(t *testing.T) {
	tr := sitegen.GenerateTree(sitegen.DefaultTreeSpec(256, 3))
	opts := DefaultOptions()
	p := NewProject()
	loadGenTree(p, tr)
	mustAnalyze(t, p, opts)
	last := func() *runRecord {
		p.mu.Lock()
		defer p.mu.Unlock()
		return p.last
	}
	edit := func(label, name, src string) (before, after *runRecord, res *Result) {
		t.Helper()
		before = last()
		p.ReplaceSource(name, src)
		res = mustAnalyze(t, p, opts)
		if resultJSON(t, res) != coldProjectJSON(t, p, opts) {
			t.Fatalf("%s: output differs from a cold run", label)
		}
		after = last()
		checkCopies(t, label, before, after)
		return before, after, res
	}
	// A file past the first candidate page, so that pages precede it.
	var f sitegen.TreeFile
	for _, tf := range tr.Files {
		if i := fileSites(last(), tf.Name); len(i) > 0 && i[0] >= 2*pages.Len && storedLiteral.MatchString(tf.Src) {
			f = tf
			break
		}
	}
	if f.Name == "" {
		t.Fatal("no file past the second candidate page with a literal to edit")
	}

	src := strings.Replace(f.Src, storedLiteral.FindString(f.Src), "= 1000;", 1)
	before, after, res := edit("literal edit", f.Name, src)
	if !res.PairStats.InternerReused || res.PairStats.PairingsReused == 0 {
		t.Fatalf("literal edit: the run did not derive from the record (%+v)", res.PairStats)
	}
	edited := fileSites(after, f.Name)
	holds := func(lo, hi int32) bool {
		return slices.ContainsFunc(edited, func(i int32) bool { return lo <= i && i < hi })
	}
	copied := 0
	for pg := range after.pairs.bests {
		lo := int32(pg << pages.Bits)
		if holds(lo, lo+pages.Len) {
			copied++
			continue
		}
		if after.pairs.bests[pg] != before.pairs.bests[pg] || after.pairs.pairingOf[pg] != before.pairs.pairingOf[pg] {
			t.Errorf("literal edit: site page %d holds none of %s's sites but was copied", pg, f.Name)
		}
	}
	if copied == 0 || copied == len(after.pairs.bests) {
		t.Fatalf("literal edit: %d of %d site pages hold the edited file's sites", copied, len(after.pairs.bests))
	}
	shared := 0
	for q, pg := range after.pairs.index {
		if slices.ContainsFunc(pg.post, func(r siteRef) bool { return slices.Contains(edited, r.site) }) {
			continue
		}
		if pg != before.pairs.index[q] {
			t.Errorf("literal edit: index page %d holds no posting of %s but was copied", q, f.Name)
		}
		shared++
	}
	if shared == 0 || shared == len(after.pairs.index) {
		t.Fatalf("literal edit: %d of %d index pages hold no posting of the edited file", shared, len(after.pairs.index))
	}

	before, after, res = edit("barrier-adding edit", f.Name, src+"\nvoid paging_probe(void)\n{\n\tsmp_mb();\n}\n")
	first := fileSites(after, f.Name)[0]
	if n, m := len(after.table.Sites()), len(before.table.Sites()); n != m+1 {
		t.Fatalf("barrier-adding edit: %d sites after, %d before", n, m)
	}
	for pg := range int(first >> pages.Bits) {
		if after.pairs.bests[pg] != before.pairs.bests[pg] || after.pairs.pairingOf[pg] != before.pairs.pairingOf[pg] {
			t.Errorf("barrier-adding edit: site page %d precedes %s's first site %d but was copied", pg, f.Name, first)
		}
	}
	if res.PairStats.PairingsReused == 0 {
		t.Error("barrier-adding edit: no pairing kept")
	}

	// Another file with a reader whose writer, on an earlier page, names
	// it as its partner.
	var g sitegen.TreeFile
	var reader string
	var writerAt int32
	fnAt := map[string]int32{}
	for i, s := range last().table.Sites() {
		if s.Fn != nil {
			fnAt[s.Fn.Name] = int32(i)
		}
	}
	for _, tf := range tr.Files {
		for _, l := range tr.Labels[tf.Name] {
			r, rok := fnAt[l.Fn]
			w, wok := fnAt[l.Partner]
			if tf.Name != f.Name && l.Kind == "mp-reader" && rok && wok && w>>pages.Bits < r>>pages.Bits && last().pairs.bests.At(int(w)).other == r {
				g, reader, writerAt = tf, l.Fn, w
			}
		}
		if reader != "" {
			break
		}
	}
	if reader == "" {
		t.Fatal("no reader paired with a writer on an earlier page")
	}
	at := strings.Index(g.Src, "int "+reader+"(")
	if at < 0 {
		t.Fatalf("no definition of %s in %s", reader, g.Name)
	}
	before, after, _ = edit("barrier-before-reader edit", g.Name, g.Src[:at]+"void paging_probe(void)\n{\n\tsmp_mb();\n}\n\n"+g.Src[at:])
	if after.pairs.bests[writerAt>>pages.Bits] == before.pairs.bests[writerAt>>pages.Bits] {
		t.Errorf("barrier-before-reader edit: the page of writer %d, whose reader was extracted again, was shared", writerAt)
	}

	// A new file between two others moves every later site but drops none:
	// a writer on the page before it whose partner is past it keeps its
	// sites where they were, yet its page must be copied to renumber the
	// partner.
	sites := last().table.Sites()
	var between string
	var w int32 = -1
	for i := int32(pages.Len); int(i) < len(sites); i += pages.Len {
		if c := last().pairs.bests.At(int(i - 1)); c.writer && c.other >= i && sites[i-1].File != sites[i].File {
			between, w = strings.TrimSuffix(sites[i-1].File, ".c")+"_probe.c", i-1
			break
		}
	}
	if w < 0 {
		t.Fatal("no page ending in a writer whose partner is in a later file")
	}
	before = last()
	p.AddSource(between, "#include <asm/barrier.h>\n\nvoid paging_probe(void)\n{\n\tsmp_mb();\n}\n")
	if res := mustAnalyze(t, p, opts); resultJSON(t, res) != coldProjectJSON(t, p, opts) {
		t.Fatal("new-file edit: output differs from a cold run")
	}
	after = last()
	checkCopies(t, "new-file edit", before, after)
	if at := fileSites(after, between); len(at) != 1 || at[0] != w+1 {
		t.Fatalf("new-file edit: %s holds sites %v, want [%d]", between, at, w+1)
	}
	if after.pairs.bests[w>>pages.Bits] == before.pairs.bests[w>>pages.Bits] {
		t.Errorf("new-file edit: the page of writer %d, whose partner moved, was shared", w)
	}
}

// checkCopies checks that the record after shares every candidate page of
// before that the design shares: a page is copied only when a site in its
// range was added, dropped or moved, when one of its record candidates
// names a partner that moved or was dropped, or when one of its candidates
// changed. An index page is copied only when it holds a posting of a site
// that moved, was added or was dropped. It logs how many pages were copied.
func checkCopies(t *testing.T, label string, before, after *runRecord) {
	t.Helper()
	prevAt := map[*access.Site]int32{}
	for j, s := range before.table.Sites() {
		prevAt[s] = int32(j)
	}
	fromPrev := make([]int32, len(after.table.Sites()))
	toNew := make([]int32, len(before.table.Sites()))
	for j := range toNew {
		toNew[j] = -1
	}
	for i, s := range after.table.Sites() {
		j, ok := prevAt[s]
		if !ok {
			j = -1
		} else {
			toNew[j] = int32(i)
		}
		fromPrev[i] = j
	}
	candCopies := 0
	for pg, page := range after.pairs.bests {
		if pg < len(before.pairs.bests) && page == before.pairs.bests[pg] {
			continue
		}
		candCopies++
		lo, hi := int32(pg<<pages.Bits), min(int32(pg+1)<<pages.Bits, int32(len(fromPrev)))
		why := false
		for i := lo; i < hi && !why; i++ {
			j := fromPrev[i]
			if why = j != i; why {
				break
			}
			c := *before.pairs.bests.At(int(j))
			if c.other >= 0 {
				why = toNew[c.other] != c.other
				c.other = toNew[c.other]
			}
			why = why || c != *after.pairs.bests.At(int(i))
		}
		if !why {
			t.Errorf("%s: candidate page %d was copied, but none of its sites or partners changed", label, pg)
		}
	}
	indexCopies := 0
	for q, page := range after.pairs.index {
		if q < len(before.pairs.index) && page == before.pairs.index[q] {
			continue
		}
		indexCopies++
		changed := q >= len(before.pairs.index)
		for _, r := range page.post {
			changed = changed || fromPrev[r.site] != r.site
		}
		if q < len(before.pairs.index) {
			for _, r := range before.pairs.index[q].post {
				changed = changed || toNew[r.site] != r.site
			}
		}
		if !changed {
			t.Errorf("%s: index page %d was copied, but none of its postings changed", label, q)
		}
	}
	t.Logf("%s: copied %d of %d candidate pages and %d of %d index pages", label,
		candCopies, len(after.pairs.bests), indexCopies, len(after.pairs.index))
}

// fileSites returns the site indices of file name in rec's table.
func fileSites(rec *runRecord, name string) []int32 {
	var out []int32
	for i, s := range rec.table.Sites() {
		if s.File == name {
			out = append(out, int32(i))
		}
	}
	return out
}
