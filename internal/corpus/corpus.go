// Package corpus generates the synthetic kernel corpus OFence-Go is
// evaluated on, standing in for the Linux 5.11 tree the paper analyzed
// (which is not available here — see DESIGN.md's substitution table).
//
// The generator emits C files containing the barrier patterns the paper
// catalogs — correct init-flag pairs, seqcount quads, implicit-IPC writers,
// unneeded barriers, and injected deviations #1-#3 — with ground-truth
// labels, so that pairing coverage, precision and the bug-breakdown table
// can be computed exactly. Distances between accesses and barriers follow
// the paper's observed shape: writes cluster within five statements of write
// barriers, reads spread out to ~50 statements (Figures 6 and 7).
package corpus

import (
	"fmt"
	"math/rand"
	"strings"

	"ofence/internal/ofence"
)

// PatternKind labels one generated pattern.
type PatternKind int

const (
	// InitFlag is the correct Listing-1 message-passing pattern.
	InitFlag PatternKind = iota
	// Seqcount is the correct Figure-5 four-barrier pattern.
	Seqcount
	// ImplicitIPC is a writer whose barrier orders a wake-up call; no
	// reader barrier exists (§4.2 special case).
	ImplicitIPC
	// Unneeded is a barrier immediately followed by a function with
	// barrier semantics (§5.1, Patch 4).
	Unneeded
	// Misplaced injects deviation #1: the reader checks the flag on the
	// wrong side of its barrier.
	Misplaced
	// RepeatedRead injects deviation #3: the reader re-reads the flag
	// after its barrier.
	RepeatedRead
	// WrongType injects deviation #2: the reader uses a write barrier.
	WrongType
	// LockPaired is a barrier meant to pair with lock-based code: it has
	// no barrier partner and stays unpaired (the coverage denominator of
	// §6.4).
	LockPaired
	// AcqRel is the correct acquire/release pattern using the combined
	// primitives smp_store_release / smp_load_acquire (Table 1).
	AcqRel
	// OnceAnnotated is the InitFlag pattern with READ_ONCE/WRITE_ONCE on
	// every shared access (§7: no annotation findings expected).
	OnceAnnotated
	// RCUUser is a function with no explicit barrier that relies on a
	// barrier-dependent API (RCU) — the §1 census's "over 6000 functions"
	// population.
	RCUUser
	// CrossFile is the InitFlag pattern with the writer and the reader in
	// different files sharing a header-declared struct — pairing is global
	// across the corpus, as in the kernel.
	CrossFile
	// LockProtected is a pair of functions sharing objects under a common
	// spinlock — correctly synchronized code the lockset baseline must NOT
	// warn about.
	LockProtected
	// StatsCounter is an unsynchronized counter that is only ever
	// incremented — the benign-race class RacerX/DataCollider filter out.
	StatsCounter
	// SingleObjectDecoy is a pair of unrelated barrier functions sharing
	// exactly ONE object — pairable only if the paper's two-shared-objects
	// threshold is ablated to one.
	SingleObjectDecoy
	// GenericDecoy is a pair of unrelated functions whose only common
	// objects have generic types (list_head) — the paper's main source of
	// incorrect pairings.
	GenericDecoy
	// Noise is a function with field accesses but no barrier.
	Noise
	// ProtocolFamily is one writer plus five readers of the same struct:
	// four readers follow the protocol (flag before the read barrier,
	// payload after) and one deviates (both after). The deviation is a real
	// bug AND a cross-site outlier — the ranking pass's high-confidence
	// shape (§6.4: most sites agree on an ordering, one does not).
	ProtocolFamily
	// CoincidentalPair is a struct whose barrier users have no consistent
	// access ordering (no usage signature reaches a majority), plus one
	// writer/reader duo crafted to trip the misplaced-access rule. The
	// finding is a false positive of the generic-struct shape the paper
	// blames for its ~50% FP ratio; the outlier census scores it low.
	CoincidentalPair
)

// String names the kind.
func (k PatternKind) String() string {
	switch k {
	case InitFlag:
		return "init-flag"
	case Seqcount:
		return "seqcount"
	case ImplicitIPC:
		return "implicit-ipc"
	case Unneeded:
		return "unneeded"
	case Misplaced:
		return "misplaced"
	case RepeatedRead:
		return "repeated-read"
	case WrongType:
		return "wrong-type"
	case LockPaired:
		return "lock-paired"
	case AcqRel:
		return "acquire-release"
	case OnceAnnotated:
		return "once-annotated"
	case RCUUser:
		return "rcu-user"
	case CrossFile:
		return "cross-file"
	case LockProtected:
		return "lock-protected"
	case StatsCounter:
		return "stats-counter"
	case SingleObjectDecoy:
		return "single-object-decoy"
	case GenericDecoy:
		return "generic-decoy"
	case Noise:
		return "noise"
	case ProtocolFamily:
		return "protocol-family"
	case CoincidentalPair:
		return "coincidental-pair"
	}
	return "unknown"
}

// ConfidenceBand labels the confidence the ranking pass (internal/rank)
// should assign findings produced inside the pattern: "high" for injected
// bugs (the census and margins support them), "low" for crafted false
// positives and decoys, "" for kinds that yield no ordering findings.
func (k PatternKind) ConfidenceBand() string {
	switch k {
	case Misplaced, RepeatedRead, WrongType, Unneeded, ProtocolFamily:
		return "high"
	case CoincidentalPair, SingleObjectDecoy, GenericDecoy, Noise:
		return "low"
	}
	return ""
}

// Truth is the ground-truth record for one generated pattern.
type Truth struct {
	Kind PatternKind
	File string
	// ID is the unique pattern number; struct and function names embed it.
	ID int
	// StructTag is the pattern's struct type.
	StructTag string
	// WriterFn and ReaderFn name the generated functions ("" when absent).
	WriterFn, ReaderFn string
	// OtherFns names additional generated functions sharing the pattern's
	// struct (the conforming readers of a ProtocolFamily, the chaotic
	// barrier users of a CoincidentalPair).
	OtherFns []string
	// ExpectPaired is whether OFence should pair the pattern's barriers.
	ExpectPaired bool
	// ExpectFindingKinds are the deviation kinds OFence should report
	// (using the ofence.FindingKind integer values; empty = clean).
	ExpectFinding string // "", "misplaced", "repeated-read", "wrong-type", "unneeded"
	// Barriers is how many barrier sites the pattern contributes.
	Barriers int
	// WriteDistance and ReadDistance are the sampled payload distances.
	WriteDistance, ReadDistance int
}

// Config parameterizes generation.
type Config struct {
	Seed int64
	// Counts is the number of patterns per kind.
	Counts map[PatternKind]int
	// PatternsPerFile groups patterns into files.
	PatternsPerFile int
	// MaxWriteDistance and MaxReadDistance bound the sampled distances.
	MaxWriteDistance int
	MaxReadDistance  int
	// PayloadFields is the number of payload objects per pattern (min 1).
	PayloadFields int
}

// DefaultConfig mirrors the paper's corpus shape at a laptop-friendly
// scale: ~50% of barriers pairable, deviations rare, reads long-tailed.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed: seed,
		Counts: map[PatternKind]int{
			InitFlag:          80,
			Seqcount:          12,
			ImplicitIPC:       20,
			Unneeded:          14,
			Misplaced:         8,
			RepeatedRead:      3,
			WrongType:         1,
			LockPaired:        90,
			AcqRel:            25,
			OnceAnnotated:     15,
			RCUUser:           1300,
			CrossFile:         15,
			LockProtected:     40,
			StatsCounter:      20,
			SingleObjectDecoy: 8,
			GenericDecoy:      6,
			Noise:             120,
		},
		PatternsPerFile:  6,
		MaxWriteDistance: 10,
		MaxReadDistance:  50,
		PayloadFields:    2,
	}
}

// ConfidenceConfig extends DefaultConfig with the ranking pass's evaluation
// patterns: protocol families whose deviant reader must score high and
// coincidental pairings whose crafted false positive must score low. The
// default corpus itself is unchanged (the extra kinds have zero count in
// DefaultConfig), so pairing/coverage benchmarks stay comparable.
func ConfidenceConfig(seed int64) Config {
	cfg := DefaultConfig(seed)
	cfg.Counts[ProtocolFamily] = 6
	cfg.Counts[CoincidentalPair] = 10
	return cfg
}

// Corpus is the generated file set plus ground truth.
type Corpus struct {
	// Files maps file name to C source.
	Files map[string]string
	// Order is the deterministic file order.
	Order []string
	// Truths records every generated pattern.
	Truths []*Truth
}

// Generate builds a corpus from cfg, deterministically from cfg.Seed.
func Generate(cfg Config) *Corpus {
	if cfg.PatternsPerFile <= 0 {
		cfg.PatternsPerFile = 6
	}
	if cfg.MaxWriteDistance <= 0 {
		cfg.MaxWriteDistance = 10
	}
	if cfg.MaxReadDistance <= 0 {
		cfg.MaxReadDistance = 50
	}
	if cfg.PayloadFields <= 0 {
		cfg.PayloadFields = 2
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := &generator{cfg: cfg, rng: rng}

	// Deterministic pattern sequence: emit kinds in a fixed order, then
	// shuffle with the seeded rng so files mix patterns.
	var kinds []PatternKind
	for _, k := range []PatternKind{InitFlag, Seqcount, ImplicitIPC, Unneeded,
		Misplaced, RepeatedRead, WrongType, LockPaired, AcqRel, OnceAnnotated,
		RCUUser, CrossFile, LockProtected, StatsCounter, SingleObjectDecoy,
		GenericDecoy, Noise, ProtocolFamily, CoincidentalPair} {
		for i := 0; i < cfg.Counts[k]; i++ {
			kinds = append(kinds, k)
		}
	}
	rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })

	c := &Corpus{Files: map[string]string{}}
	var cur strings.Builder
	var curName string
	inFile := 0
	fileNo := 0
	flush := func() {
		if curName != "" && cur.Len() > 0 {
			c.Files[curName] = cur.String()
			c.Order = append(c.Order, curName)
		}
		cur.Reset()
		curName = ""
		inFile = 0
	}
	var carried string // deferred parts emitted into the next file
	for _, k := range kinds {
		if curName == "" {
			curName = fmt.Sprintf("gen_%04d.c", fileNo)
			fileNo++
			cur.WriteString(fileHeader)
			if carried != "" {
				cur.WriteString(carried)
				cur.WriteString("\n")
				carried = ""
			}
		}
		src, deferred, truth := g.emit(k)
		truth.File = curName
		c.Truths = append(c.Truths, truth)
		cur.WriteString(src)
		cur.WriteString("\n")
		if deferred != "" {
			carried += deferred
		}
		inFile++
		if inFile >= cfg.PatternsPerFile {
			flush()
		}
	}
	if carried != "" {
		// Tail carry: a final file holds any remaining deferred readers.
		if curName == "" {
			curName = fmt.Sprintf("gen_%04d.c", fileNo)
			cur.WriteString(fileHeader)
		}
		cur.WriteString(carried)
	}
	flush()
	return c
}

// fileHeader is prepended to every generated file. The includes resolve
// against internal/kernelhdr when the analyzing project registers it and are
// skipped otherwise — both paths are exercised by tests.
const fileHeader = `#include <linux/kernel.h>
#include <linux/types.h>
#include <linux/sched.h>
#include <linux/seqlock.h>
#include <linux/spinlock.h>
#include <asm/barrier.h>

`

type generator struct {
	cfg    Config
	rng    *rand.Rand
	nextID int
}

// sampleWriteDistance follows the paper's Figure 6 shape: ~95% of ordered
// writes are within 5 statements of the write barrier.
func (g *generator) sampleWriteDistance() int {
	if g.rng.Float64() < 0.95 {
		return 1 + g.rng.Intn(5)
	}
	d := 6 + g.rng.Intn(g.cfg.MaxWriteDistance-5)
	return d
}

// sampleReadDistance follows Figure 7: reads spread out, long tail to ~50.
func (g *generator) sampleReadDistance() int {
	r := g.rng.Float64()
	switch {
	case r < 0.5:
		return 1 + g.rng.Intn(5)
	case r < 0.8:
		return 6 + g.rng.Intn(10)
	default:
		return 16 + g.rng.Intn(g.cfg.MaxReadDistance-15)
	}
}

func (g *generator) emit(k PatternKind) (src, deferred string, t *Truth) {
	id := g.nextID
	g.nextID++
	t = &Truth{Kind: k, ID: id, StructTag: fmt.Sprintf("gs%d", id)}
	switch k {
	case InitFlag:
		return g.initFlag(t, "correct"), "", t
	case Misplaced:
		return g.initFlag(t, "misplaced"), "", t
	case RepeatedRead:
		return g.initFlag(t, "reread"), "", t
	case WrongType:
		return g.initFlag(t, "wrongtype"), "", t
	case Seqcount:
		return g.seqcount(t), "", t
	case ImplicitIPC:
		return g.implicitIPC(t), "", t
	case Unneeded:
		return g.unneeded(t), "", t
	case LockPaired:
		return g.lockPaired(t), "", t
	case AcqRel:
		return g.acqRel(t), "", t
	case OnceAnnotated:
		return g.initFlag(t, "once"), "", t
	case RCUUser:
		return g.rcuUser(t), "", t
	case CrossFile:
		w, r := g.crossFile(t)
		return w, r, t
	case LockProtected:
		return g.lockProtected(t), "", t
	case StatsCounter:
		return g.statsCounter(t), "", t
	case SingleObjectDecoy:
		return g.singleObjectDecoy(t), "", t
	case GenericDecoy:
		return g.genericDecoy(t), "", t
	case Noise:
		return g.noise(t), "", t
	case ProtocolFamily:
		return g.protocolFamily(t), "", t
	case CoincidentalPair:
		return g.coincidentalPair(t), "", t
	}
	return "", "", t
}

// crossFile emits the writer into the current file and defers the reader
// (plus its own struct declaration) to the next file, mirroring the
// kernel's pattern of producer and consumer living in different
// compilation units that share a header.
func (g *generator) crossFile(t *Truth) (writer, reader string) {
	id := t.ID
	st := t.StructTag
	t.WriterFn = fmt.Sprintf("xw_%d", id)
	t.ReaderFn = fmt.Sprintf("xr_%d", id)
	t.Barriers = 2
	t.ExpectPaired = true
	t.WriteDistance, t.ReadDistance = 1, 2

	var w strings.Builder
	fmt.Fprintf(&w, "struct %s {\n\tlong xpay_%d;\n\tint xflag_%d;\n};\n", st, id, id)
	fmt.Fprintf(&w, "static void %s(struct %s *p) {\n", t.WriterFn, st)
	fmt.Fprintf(&w, "\tp->xpay_%d = 1;\n", id)
	w.WriteString("\tsmp_wmb();\n")
	fmt.Fprintf(&w, "\tp->xflag_%d = 1;\n", id)
	w.WriteString("}\n")

	var r strings.Builder
	fmt.Fprintf(&r, "struct %s {\n\tlong xpay_%d;\n\tint xflag_%d;\n};\n", st, id, id)
	fmt.Fprintf(&r, "static void %s(struct %s *p) {\n", t.ReaderFn, st)
	fmt.Fprintf(&r, "\tif (!p->xflag_%d)\n\t\treturn;\n", id)
	r.WriteString("\tsmp_rmb();\n")
	fmt.Fprintf(&r, "\tg_use_%d(p->xpay_%d);\n", id, id)
	r.WriteString("}\n")
	return w.String(), r.String()
}

// noiseLines emits n statements with no field accesses and no semantics.
func noiseLines(sb *strings.Builder, n, id int) {
	for i := 0; i < n; i++ {
		fmt.Fprintf(sb, "\tg_nop_%d_%d();\n", id, i)
	}
}

// initFlag emits the message-passing pattern in one of four variants.
func (g *generator) initFlag(t *Truth, variant string) string {
	id := t.ID
	st := t.StructTag
	t.WriterFn = fmt.Sprintf("w_%d", id)
	t.ReaderFn = fmt.Sprintf("r_%d", id)
	t.Barriers = 2
	t.ExpectPaired = true
	wd := g.sampleWriteDistance()
	rd := g.sampleReadDistance()
	switch variant {
	case "misplaced", "reread", "wrongtype":
		// Injected deviations model the bugs the paper FOUND, which are by
		// definition inside the exploration windows (a bug beyond the
		// window is invisible to the tool — the Figure 6 trade-off, which
		// the correct patterns' distance tail already exercises).
		wd = 1 + g.rng.Intn(5)
		if variant == "wrongtype" {
			// The mistyped reader barrier only gets the short write-barrier
			// window, so its reads must also sit close.
			rd = 1 + g.rng.Intn(3)
		}
	}
	t.WriteDistance, t.ReadDistance = wd, rd

	nPayload := g.cfg.PayloadFields
	var sb strings.Builder
	fmt.Fprintf(&sb, "struct %s {\n", st)
	for i := 0; i < nPayload; i++ {
		fmt.Fprintf(&sb, "\tlong pay%d_%d;\n", i, id)
	}
	fmt.Fprintf(&sb, "\tint flag_%d;\n};\n", id)

	// Writer: the NEAREST payload store sits wd statements before the
	// barrier (this is what Figure 6's window sweep measures: the pairing
	// appears once the write window reaches wd); further payloads sit a
	// little beyond it.
	far := wd
	if nPayload > 1 {
		far = wd + 1 + g.rng.Intn(3)
		if far > g.cfg.MaxWriteDistance {
			far = g.cfg.MaxWriteDistance
		}
		if far <= wd {
			far = wd + 1
		}
	}
	store := func(lhs string) string { return lhs + " = 1;" }
	loadOf := func(e string) string { return e }
	if variant == "once" {
		store = func(lhs string) string { return "WRITE_ONCE(" + lhs + ", 1);" }
		loadOf = func(e string) string { return "READ_ONCE(" + e + ")" }
	}
	fmt.Fprintf(&sb, "static void %s(struct %s *p) {\n", t.WriterFn, st)
	fmt.Fprintf(&sb, "\t%s\n", store(fmt.Sprintf("p->pay%d_%d", nPayload-1, id)))
	if gap := far - wd - (nPayload - 1); gap > 0 {
		noiseLines(&sb, gap, id*10)
	}
	for i := nPayload - 2; i >= 1; i-- {
		fmt.Fprintf(&sb, "\t%s\n", store(fmt.Sprintf("p->pay%d_%d", i, id)))
	}
	fmt.Fprintf(&sb, "\t%s\n", store(fmt.Sprintf("p->pay0_%d", id)))
	if wd > 1 {
		noiseLines(&sb, wd-1, id*10+2)
	}
	sb.WriteString("\tsmp_wmb();\n")
	fmt.Fprintf(&sb, "\t%s\n", store(fmt.Sprintf("p->flag_%d", id)))
	sb.WriteString("}\n")

	// Reader variants.
	readerBarrier := "smp_rmb"
	if variant == "wrongtype" {
		readerBarrier = "smp_wmb"
		t.ExpectFinding = "wrong-type"
	}
	fmt.Fprintf(&sb, "static void %s(struct %s *p) {\n", t.ReaderFn, st)
	// Offending accesses of injected bugs sit well past the barrier:
	// "bugs tend to happen on reads located further away from the
	// barriers" (§6.4; the Patch 3 re-read is 26 statements out). The
	// payload reads that drive the pairing must still land inside the
	// read window after the bug's offset.
	bugDist := 5 + g.rng.Intn(20)
	if variant == "misplaced" || variant == "reread" {
		if max := g.cfg.MaxReadDistance - bugDist - 6; rd > max {
			rd = max
		}
		if rd < 1 {
			rd = 1
		}
	}
	switch variant {
	case "misplaced":
		t.ExpectFinding = "misplaced"
		fmt.Fprintf(&sb, "\t%s();\n", readerBarrier)
		noiseLines(&sb, bugDist-1, id*10+3)
		fmt.Fprintf(&sb, "\tif (!p->flag_%d)\n\t\treturn;\n", id)
	case "reread":
		t.ExpectFinding = "repeated-read"
		fmt.Fprintf(&sb, "\tif (!p->flag_%d)\n\t\treturn;\n", id)
		fmt.Fprintf(&sb, "\t%s();\n", readerBarrier)
		noiseLines(&sb, bugDist-1, id*10+3)
		fmt.Fprintf(&sb, "\tg_sink_%d(p->flag_%d);\n", id, id)
	default:
		fmt.Fprintf(&sb, "\tif (!%s)\n\t\treturn;\n", loadOf(fmt.Sprintf("p->flag_%d", id)))
		fmt.Fprintf(&sb, "\t%s();\n", readerBarrier)
	}
	// Payload reads at distance rd.
	if gap := rd - nPayload; gap > 0 {
		gapHere := gap
		if variant == "reread" {
			gapHere--
		}
		if gapHere > 0 {
			noiseLines(&sb, gapHere, id*10+1)
		}
	}
	for i := 0; i < nPayload; i++ {
		fmt.Fprintf(&sb, "\tg_use_%d(%s);\n", id, loadOf(fmt.Sprintf("p->pay%d_%d", i, id)))
	}
	sb.WriteString("}\n")
	return sb.String()
}

// acqRel emits the correct acquire/release pattern using the combined
// primitives of Table 1.
func (g *generator) acqRel(t *Truth) string {
	id := t.ID
	st := t.StructTag
	t.WriterFn = fmt.Sprintf("w_%d", id)
	t.ReaderFn = fmt.Sprintf("r_%d", id)
	t.Barriers = 2
	t.ExpectPaired = true
	wd := g.sampleWriteDistance()
	rd := g.sampleReadDistance()
	// The reader's flag check and early return occupy two statements of
	// the window; keep the payload read inside the default read window.
	if max := g.cfg.MaxReadDistance - 4; rd > max {
		rd = max
	}
	t.WriteDistance, t.ReadDistance = 1, rd // combined store is at distance 0

	var sb strings.Builder
	fmt.Fprintf(&sb, "struct %s {\n\tlong payload_%d;\n\tint ready_%d;\n};\n", st, id, id)
	fmt.Fprintf(&sb, "static void %s(struct %s *p) {\n", t.WriterFn, st)
	fmt.Fprintf(&sb, "\tp->payload_%d = 1;\n", id)
	if wd > 1 {
		noiseLines(&sb, wd-1, id*10)
	}
	fmt.Fprintf(&sb, "\tsmp_store_release(&p->ready_%d, 1);\n", id)
	sb.WriteString("}\n")
	fmt.Fprintf(&sb, "static void %s(struct %s *p) {\n", t.ReaderFn, st)
	fmt.Fprintf(&sb, "\tint r = smp_load_acquire(&p->ready_%d);\n", id)
	fmt.Fprintf(&sb, "\tif (!r)\n\t\treturn;\n")
	if rd > 1 {
		noiseLines(&sb, rd-1, id*10+1)
	}
	fmt.Fprintf(&sb, "\tg_use_%d(p->payload_%d);\n", id, id)
	sb.WriteString("}\n")
	return sb.String()
}

func (g *generator) seqcount(t *Truth) string {
	id := t.ID
	st := t.StructTag
	t.WriterFn = fmt.Sprintf("w_%d", id)
	t.ReaderFn = fmt.Sprintf("r_%d", id)
	t.Barriers = 4
	t.ExpectPaired = true
	t.WriteDistance, t.ReadDistance = 1, 1
	var sb strings.Builder
	fmt.Fprintf(&sb, "struct %s {\n\tu64 cnt0_%d;\n\tu64 cnt1_%d;\n\tseqcount_t seq_%d;\n};\n", st, id, id, id)
	fmt.Fprintf(&sb, "static void %s(struct %s *p) {\n", t.WriterFn, st)
	fmt.Fprintf(&sb, "\twrite_seqcount_begin(&p->seq_%d);\n", id)
	fmt.Fprintf(&sb, "\tp->cnt0_%d += 1;\n", id)
	fmt.Fprintf(&sb, "\tp->cnt1_%d += 2;\n", id)
	fmt.Fprintf(&sb, "\twrite_seqcount_end(&p->seq_%d);\n", id)
	sb.WriteString("}\n")
	fmt.Fprintf(&sb, "static void %s(struct %s *p) {\n", t.ReaderFn, st)
	sb.WriteString("\tunsigned v;\n\tu64 a, b;\n\tdo {\n")
	fmt.Fprintf(&sb, "\t\tv = read_seqcount_begin(&p->seq_%d);\n", id)
	fmt.Fprintf(&sb, "\t\ta = p->cnt0_%d;\n", id)
	fmt.Fprintf(&sb, "\t\tb = p->cnt1_%d;\n", id)
	fmt.Fprintf(&sb, "\t} while (read_seqcount_retry(&p->seq_%d, v));\n", id)
	fmt.Fprintf(&sb, "\tg_use_%d(a, b);\n", id)
	sb.WriteString("}\n")
	return sb.String()
}

func (g *generator) implicitIPC(t *Truth) string {
	id := t.ID
	st := t.StructTag
	t.WriterFn = fmt.Sprintf("w_%d", id)
	t.Barriers = 1
	t.ExpectPaired = false
	var sb strings.Builder
	fmt.Fprintf(&sb, "struct %s {\n\tlong work_%d;\n\tlong arg_%d;\n\tstruct task_struct *task_%d;\n};\n", st, id, id, id)
	fmt.Fprintf(&sb, "static void %s(struct %s *p) {\n", t.WriterFn, st)
	fmt.Fprintf(&sb, "\tp->work_%d = 1;\n", id)
	fmt.Fprintf(&sb, "\tp->arg_%d = 2;\n", id)
	sb.WriteString("\tsmp_wmb();\n")
	noiseLines(&sb, 1+g.rng.Intn(2), id*10)
	fmt.Fprintf(&sb, "\twake_up_process(p->task_%d);\n", id)
	sb.WriteString("}\n")
	// A woken function with no barrier (correct: the IPC is the barrier).
	fmt.Fprintf(&sb, "static void woken_%d(struct %s *p) {\n\tg_use_%d(p->work_%d, p->arg_%d);\n}\n", id, st, id, id, id)
	return sb.String()
}

func (g *generator) unneeded(t *Truth) string {
	id := t.ID
	st := t.StructTag
	t.WriterFn = fmt.Sprintf("w_%d", id)
	t.Barriers = 1
	t.ExpectPaired = false
	t.ExpectFinding = "unneeded"
	var sb strings.Builder
	fmt.Fprintf(&sb, "struct %s {\n\tint token_%d;\n\tstruct task_struct *task_%d;\n};\n", st, id, id)
	fmt.Fprintf(&sb, "static int %s(struct %s *p) {\n", t.WriterFn, st)
	fmt.Fprintf(&sb, "\tp->token_%d = 1;\n", id)
	sb.WriteString("\tsmp_wmb();\n")
	fmt.Fprintf(&sb, "\twake_up_process(p->task_%d);\n", id)
	sb.WriteString("\treturn 1;\n}\n")
	return sb.String()
}

func (g *generator) lockPaired(t *Truth) string {
	id := t.ID
	st := t.StructTag
	t.WriterFn = fmt.Sprintf("w_%d", id)
	t.Barriers = 1
	t.ExpectPaired = false
	var sb strings.Builder
	// A barrier whose counterpart uses locks: the lock-side function has
	// field accesses but no barrier, so no pairing is possible.
	fmt.Fprintf(&sb, "struct %s {\n\tlong st0_%d;\n\tlong st1_%d;\n};\n", st, id, id)
	fmt.Fprintf(&sb, "static void %s(struct %s *p) {\n", t.WriterFn, st)
	fmt.Fprintf(&sb, "\tp->st0_%d = 1;\n", id)
	sb.WriteString("\tsmp_mb();\n")
	noiseLines(&sb, 1, id*10)
	fmt.Fprintf(&sb, "\tp->st1_%d = 1;\n", id)
	sb.WriteString("}\n")
	fmt.Fprintf(&sb, "static void locked_%d(struct %s *p) {\n", id, st)
	fmt.Fprintf(&sb, "\tspin_lock(&g_lock_%d);\n", id)
	fmt.Fprintf(&sb, "\tg_use_%d(p->st0_%d, p->st1_%d);\n", id, id, id)
	fmt.Fprintf(&sb, "\tspin_unlock(&g_lock_%d);\n", id)
	sb.WriteString("}\n")
	return sb.String()
}

func (g *generator) genericDecoy(t *Truth) string {
	id := t.ID
	t.StructTag = "list_head"
	t.WriterFn = fmt.Sprintf("w_%d", id)
	t.ReaderFn = fmt.Sprintf("r_%d", id)
	t.Barriers = 2
	t.ExpectPaired = false // the generic-type filter must reject it
	var sb strings.Builder
	// Two unrelated functions whose only shared objects are list_head
	// fields. Without the generic filter these would pair incorrectly.
	fmt.Fprintf(&sb, "static void %s(struct list_head *l) {\n", t.WriterFn)
	sb.WriteString("\tl->next = 0;\n\tsmp_wmb();\n\tl->prev = 0;\n}\n")
	fmt.Fprintf(&sb, "static void %s(struct list_head *l) {\n", t.ReaderFn)
	sb.WriteString("\tif (!l->prev)\n\t\treturn;\n\tsmp_rmb();\n\tg_use(l->next);\n}\n")
	return sb.String()
}

// lockProtected emits a writer/reader pair whose shared objects are always
// accessed under the same spinlock: correct lock-based code, outside
// OFence's scope and safe for the lockset baseline.
func (g *generator) lockProtected(t *Truth) string {
	id := t.ID
	st := t.StructTag
	t.WriterFn = fmt.Sprintf("upd_%d", id)
	t.ReaderFn = fmt.Sprintf("get_%d", id)
	t.Barriers = 0
	t.ExpectPaired = false
	var sb strings.Builder
	fmt.Fprintf(&sb, "struct %s {\n\tlong fld0_%d;\n\tlong fld1_%d;\n};\n", st, id, id)
	fmt.Fprintf(&sb, "spinlock_t g_lock_%d;\n", id)
	fmt.Fprintf(&sb, "static void %s(struct %s *p) {\n", t.WriterFn, st)
	fmt.Fprintf(&sb, "\tspin_lock(&g_lock_%d);\n", id)
	fmt.Fprintf(&sb, "\tp->fld0_%d = 1;\n\tp->fld1_%d = 2;\n", id, id)
	fmt.Fprintf(&sb, "\tspin_unlock(&g_lock_%d);\n", id)
	sb.WriteString("}\n")
	fmt.Fprintf(&sb, "static long %s(struct %s *p) {\n", t.ReaderFn, st)
	fmt.Fprintf(&sb, "\tlong v;\n\tspin_lock(&g_lock_%d);\n", id)
	fmt.Fprintf(&sb, "\tv = p->fld0_%d + p->fld1_%d;\n", id, id)
	fmt.Fprintf(&sb, "\tspin_unlock(&g_lock_%d);\n", id)
	sb.WriteString("\treturn v;\n}\n")
	return sb.String()
}

// statsCounter emits an unsynchronized increment-only counter, the benign
// race class the lockset baselines filter.
func (g *generator) statsCounter(t *Truth) string {
	id := t.ID
	st := t.StructTag
	t.Barriers = 0
	t.ExpectPaired = false
	var sb strings.Builder
	fmt.Fprintf(&sb, "struct %s {\n\tlong hits_%d;\n};\n", st, id)
	fmt.Fprintf(&sb, "static void bump_%d(struct %s *p) {\n\tp->hits_%d++;\n}\n", id, st, id)
	fmt.Fprintf(&sb, "static void bump2_%d(struct %s *p) {\n\tp->hits_%d += 2;\n}\n", id, st, id)
	return sb.String()
}

// singleObjectDecoy emits two unrelated barrier functions whose only common
// object is (task_struct, pid) — one shared object, below the paper's
// pairing threshold of two. They must stay unpaired at the default
// threshold and pair (incorrectly) when the threshold is ablated to one.
func (g *generator) singleObjectDecoy(t *Truth) string {
	id := t.ID
	st := t.StructTag
	t.WriterFn = fmt.Sprintf("sd_w_%d", id)
	t.ReaderFn = fmt.Sprintf("sd_r_%d", id)
	t.Barriers = 2
	t.ExpectPaired = false
	var sb strings.Builder
	fmt.Fprintf(&sb, "struct %s {\n\tlong own_%d;\n};\n", st, id)
	fmt.Fprintf(&sb, "struct %s_b {\n\tlong other_%d;\n};\n", st, id)
	fmt.Fprintf(&sb, "static void %s(struct %s *p, struct task_struct *t) {\n", t.WriterFn, st)
	fmt.Fprintf(&sb, "\tp->own_%d = 1;\n", id)
	sb.WriteString("\tsmp_wmb();\n")
	sb.WriteString("\tt->pid = 1;\n")
	sb.WriteString("}\n")
	fmt.Fprintf(&sb, "static void %s(struct %s_b *q, struct task_struct *t) {\n", t.ReaderFn, st)
	sb.WriteString("\tif (!t->pid)\n\t\treturn;\n")
	sb.WriteString("\tsmp_rmb();\n")
	fmt.Fprintf(&sb, "\tg_use_%d(q->other_%d);\n", id, id)
	sb.WriteString("}\n")
	return sb.String()
}

// rcuUser emits a function that relies on RCU (a barrier-dependent API)
// without containing an explicit barrier.
func (g *generator) rcuUser(t *Truth) string {
	id := t.ID
	st := t.StructTag
	t.Barriers = 0
	t.ExpectPaired = false
	var sb strings.Builder
	fmt.Fprintf(&sb, "struct %s {\n\tlong item_%d;\n\tstruct %s *next_%d;\n};\n", st, id, st, id)
	fmt.Fprintf(&sb, "static long rcu_reader_%d(struct %s *head) {\n", id, st)
	sb.WriteString("\trcu_read_lock();\n")
	fmt.Fprintf(&sb, "\tstruct %s *p = rcu_dereference(head->next_%d);\n", st, id)
	fmt.Fprintf(&sb, "\tlong v = p->item_%d;\n", id)
	sb.WriteString("\trcu_read_unlock();\n")
	sb.WriteString("\treturn v;\n}\n")
	return sb.String()
}

func (g *generator) noise(t *Truth) string {
	id := t.ID
	st := t.StructTag
	t.Barriers = 0
	t.ExpectPaired = false
	var sb strings.Builder
	n := 2 + g.rng.Intn(4)
	fmt.Fprintf(&sb, "struct %s {\n", st)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "\tlong nf%d_%d;\n", i, id)
	}
	sb.WriteString("};\n")
	fmt.Fprintf(&sb, "static long plain_%d(struct %s *p) {\n\tlong acc = 0;\n", id, st)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "\tacc += p->nf%d_%d;\n", i, id)
	}
	sb.WriteString("\treturn acc;\n}\n")
	return sb.String()
}

// protocolFamily emits one writer and five readers of the same struct. The
// writer stores the payload before its write barrier and the flag after;
// four conforming readers check the flag before their read barrier and read
// the payload after; the deviant reader does both AFTER its barrier, which
// is deviation #1 on the flag (written after the write barrier but read
// after the read barrier). Five of six sites agree on each object's
// ordering, so the outlier census strongly supports the finding.
func (g *generator) protocolFamily(t *Truth) string {
	id := t.ID
	st := t.StructTag
	t.WriterFn = fmt.Sprintf("pf_w_%d", id)
	t.ReaderFn = fmt.Sprintf("pf_dev_%d", id)
	t.Barriers = 6
	t.ExpectPaired = true
	t.ExpectFinding = "misplaced"
	t.WriteDistance, t.ReadDistance = 1, 1

	var sb strings.Builder
	fmt.Fprintf(&sb, "struct %s {\n\tlong pfpay_%d;\n\tint pfflag_%d;\n};\n", st, id, id)
	fmt.Fprintf(&sb, "static void %s(struct %s *p) {\n", t.WriterFn, st)
	fmt.Fprintf(&sb, "\tp->pfpay_%d = 1;\n", id)
	sb.WriteString("\tsmp_wmb();\n")
	fmt.Fprintf(&sb, "\tp->pfflag_%d = 1;\n", id)
	sb.WriteString("}\n")
	for i := 0; i < 4; i++ {
		fn := fmt.Sprintf("pf_r%d_%d", i, id)
		t.OtherFns = append(t.OtherFns, fn)
		fmt.Fprintf(&sb, "static void %s(struct %s *p) {\n", fn, st)
		fmt.Fprintf(&sb, "\tif (!p->pfflag_%d)\n\t\treturn;\n", id)
		sb.WriteString("\tsmp_rmb();\n")
		fmt.Fprintf(&sb, "\tg_use_%d(p->pfpay_%d);\n", id, id)
		sb.WriteString("}\n")
	}
	fmt.Fprintf(&sb, "static void %s(struct %s *p) {\n", t.ReaderFn, st)
	sb.WriteString("\tsmp_rmb();\n")
	fmt.Fprintf(&sb, "\tif (!p->pfflag_%d)\n\t\treturn;\n", id)
	fmt.Fprintf(&sb, "\tg_use_%d(p->pfpay_%d);\n", id, id)
	sb.WriteString("}\n")
	return sb.String()
}

// coincidentalPair emits a struct with no consistent barrier protocol: five
// chaotic users each touch field a around their barrier with a different
// usage signature (no signature reaches half the sites), plus one
// writer/reader duo sharing BOTH fields and crafted so the duo check fires
// the misplaced-access rule on a. The finding is a ground-truth false
// positive (ExpectFinding stays empty): this struct has no ordering
// protocol to violate, so the ranking pass must score it low.
func (g *generator) coincidentalPair(t *Truth) string {
	id := t.ID
	st := t.StructTag
	t.WriterFn = fmt.Sprintf("cp_w_%d", id)
	t.ReaderFn = fmt.Sprintf("cp_r_%d", id)
	t.Barriers = 7
	t.ExpectPaired = true // the crafted duo shares two objects and does pair

	var sb strings.Builder
	fmt.Fprintf(&sb, "struct %s {\n\tlong cpa_%d;\n\tlong cpb_%d;\n};\n", st, id, id)
	// The crafted duo: a stored before wmb / b after; reader loads BOTH
	// before its rmb, so a is written-before + read-before => deviation #1.
	fmt.Fprintf(&sb, "static void %s(struct %s *p) {\n", t.WriterFn, st)
	fmt.Fprintf(&sb, "\tp->cpa_%d = 1;\n", id)
	sb.WriteString("\tsmp_wmb();\n")
	fmt.Fprintf(&sb, "\tp->cpb_%d = 2;\n", id)
	sb.WriteString("}\n")
	fmt.Fprintf(&sb, "static void %s(struct %s *p) {\n", t.ReaderFn, st)
	fmt.Fprintf(&sb, "\tif (!p->cpa_%d)\n\t\treturn;\n", id)
	fmt.Fprintf(&sb, "\tg_sink_%d(p->cpb_%d);\n", id, id)
	sb.WriteString("\tsmp_rmb();\n")
	fmt.Fprintf(&sb, "\tg_nop_%d_0();\n", id)
	sb.WriteString("}\n")
	// A farther second reader sharing both fields: it loses the pairing to
	// the crafted reader but stays a probed alternative, so the duo's
	// pairing margin is thin (a real protocol's pairing is decisive).
	alt := fmt.Sprintf("cp_alt_%d", id)
	t.OtherFns = append(t.OtherFns, alt)
	fmt.Fprintf(&sb, "static void %s(struct %s *p) {\n", alt, st)
	fmt.Fprintf(&sb, "\tif (!p->cpb_%d)\n\t\treturn;\n", id)
	fmt.Fprintf(&sb, "\tg_nop_%d_1();\n\tg_nop_%d_2();\n", id, id)
	sb.WriteString("\tsmp_rmb();\n")
	fmt.Fprintf(&sb, "\tg_nop_%d_3();\n\tg_nop_%d_4();\n", id, id)
	fmt.Fprintf(&sb, "\tg_use_%d(p->cpa_%d);\n", id, id)
	sb.WriteString("}\n")
	// Chaotic users: one shared object each (below the pairing threshold,
	// so they never pair) with five distinct usage signatures for a.
	loadA := fmt.Sprintf("\tg_use_%d(p->cpa_%d);\n", id, id)
	storeA := func(v int) string { return fmt.Sprintf("\tp->cpa_%d = %d;\n", id, v) }
	shapes := []struct {
		before, after string
	}{
		{"", loadA},            // load after
		{"", storeA(3)},        // store after
		{loadA, loadA},         // load both sides
		{storeA(4), storeA(5)}, // store both sides
		{loadA, storeA(6)},     // load before, store after
	}
	for i, sh := range shapes {
		fn := fmt.Sprintf("cp_u%d_%d", i, id)
		t.OtherFns = append(t.OtherFns, fn)
		fmt.Fprintf(&sb, "static void %s(struct %s *p) {\n", fn, st)
		sb.WriteString(sh.before)
		sb.WriteString("\tsmp_mb();\n")
		sb.WriteString(sh.after)
		sb.WriteString("}\n")
	}
	return sb.String()
}

// Sources returns the corpus files in deterministic order, ready for
// Project.AddSources (the analysis then parses them in parallel).
func (c *Corpus) Sources() []ofence.SourceFile {
	srcs := make([]ofence.SourceFile, 0, len(c.Order))
	for _, name := range c.Order {
		srcs = append(srcs, ofence.SourceFile{Name: name, Src: c.Files[name]})
	}
	return srcs
}

// TotalBarriers sums the barrier sites the corpus should produce.
func (c *Corpus) TotalBarriers() int {
	n := 0
	for _, t := range c.Truths {
		n += t.Barriers
	}
	return n
}

// CountKind returns how many patterns of kind k were generated.
func (c *Corpus) CountKind(k PatternKind) int {
	n := 0
	for _, t := range c.Truths {
		if t.Kind == k {
			n++
		}
	}
	return n
}
