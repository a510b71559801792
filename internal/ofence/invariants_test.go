package ofence_test

import (
	"testing"
	"testing/quick"

	"ofence/internal/access"
	"ofence/internal/corpus"
	ofence "ofence/internal/ofence"
)

// Structural invariants of the pairing algorithm, checked over randomly
// seeded corpora.

func analyzeCorpusSeed(t *testing.T, seed int64) (*ofence.Result, *corpus.Corpus) {
	t.Helper()
	cfg := corpus.DefaultConfig(seed)
	cfg.Counts = map[corpus.PatternKind]int{
		corpus.InitFlag:     10,
		corpus.Seqcount:     2,
		corpus.ImplicitIPC:  3,
		corpus.Unneeded:     2,
		corpus.Misplaced:    2,
		corpus.RepeatedRead: 1,
		corpus.WrongType:    1,
		corpus.LockPaired:   8,
		corpus.AcqRel:       4,
		corpus.GenericDecoy: 2,
		corpus.Noise:        8,
	}
	c := corpus.Generate(cfg)
	p := ofence.NewProject()
	for _, name := range c.Order {
		p.AddSource(name, c.Files[name])
	}
	return mustAnalyze(t, p, ofence.DefaultOptions()), c
}

func TestQuickPairingInvariants(t *testing.T) {
	f := func(seed int64) bool {
		res, _ := analyzeCorpusSeed(t, seed%1000)

		// 1. Site partition: every site is in exactly one of {paired,
		// unpaired, implicit}.
		seen := map[*access.Site]int{}
		for _, pg := range res.Pairings {
			for _, s := range pg.Sites {
				seen[s]++
			}
		}
		for _, s := range res.Unpaired {
			seen[s] += 100
		}
		for _, s := range res.ImplicitIPC {
			seen[s] += 10000
		}
		for _, s := range res.Sites {
			switch seen[s] {
			case 1, 100, 10000:
			default:
				t.Logf("site %v classified %d times", s, seen[s])
				return false
			}
		}

		// 2. Every pairing has >= 2 sites, >= MinSharedObjects common
		// objects, and a positive weight.
		for _, pg := range res.Pairings {
			if len(pg.Sites) < 2 || len(pg.Common) < 2 || pg.Weight <= 0 {
				t.Logf("malformed pairing: %v (common=%v weight=%d)", pg, pg.Common, pg.Weight)
				return false
			}
			// 3. Every member site accesses every common object.
			for _, s := range pg.Sites {
				objs := s.Objects()
				for _, o := range pg.Common {
					if _, ok := objs[o]; !ok {
						t.Logf("site %v lacks common object %v", s, o)
						return false
					}
				}
			}
			// 4. The pairing origin is a write-side barrier.
			if !pg.Writer().Kind.OrdersWrites() {
				t.Logf("pairing origin %v is not write-side", pg.Writer())
				return false
			}
			// 5. No generic-struct objects in the common set.
			for _, o := range pg.Common {
				if o.Struct == "list_head" {
					t.Logf("generic object %v paired", o)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

func TestQuickAnalysisDeterministic(t *testing.T) {
	f := func(seed int64) bool {
		res1, _ := analyzeCorpusSeed(t, seed%500)
		res2, _ := analyzeCorpusSeed(t, seed%500)
		if len(res1.Pairings) != len(res2.Pairings) || len(res1.Findings) != len(res2.Findings) {
			return false
		}
		for i := range res1.Findings {
			if res1.Findings[i].String() != res2.Findings[i].String() {
				return false
			}
		}
		for i := range res1.Pairings {
			if res1.Pairings[i].String() != res2.Pairings[i].String() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5}); err != nil {
		t.Error(err)
	}
}

func TestQuickFindingsReferenceValidSites(t *testing.T) {
	f := func(seed int64) bool {
		res, _ := analyzeCorpusSeed(t, seed%300)
		valid := map[*access.Site]bool{}
		for _, s := range res.Sites {
			valid[s] = true
		}
		for _, fd := range res.Findings {
			if !valid[fd.Site] {
				return false
			}
			if fd.Pairing != nil {
				member := false
				for _, s := range fd.Pairing.Sites {
					if s == fd.Site {
						member = true
					}
				}
				if !member {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5}); err != nil {
		t.Error(err)
	}
}
