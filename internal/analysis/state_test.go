package analysis

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/adds"
	"repro/internal/lang"
	"repro/internal/pathmatrix"
)

// isolationSrc reaches every part of a State: forward loads (Prov), an
// indexed edge, a store that shares a node along a unique dimension (a
// violation with edge references), loops (invariant, body exit) and
// returns (an exit state that is a join, not a clone).
const isolationSrc = adds.BinTreeSrc + adds.OctreeSrc + `
procedure graft(BinTree *t, BinTree *u) {
  var BinTree *l = t->left;
  var BinTree *r = t->right;
  u->left = l;
  var BinTree *x = l;
  while x != NULL {
    x = x->left;
  }
  if r != NULL {
    u->right = r;
  }
}
function int depth(BinTree *t) {
  if t == NULL {
    return 0;
  }
  var BinTree *l = t->left;
  if l == NULL {
    return 1;
  }
  return 2;
}
procedure probe(Octree *t, int i) {
  var Octree *c = t->subtrees[i];
  var Octree *p = t;
  while p != NULL {
    p->mass = 1.0;
    p = p->next;
  }
  c->next = t;
}
`

// dumpState renders everything a State holds, deterministically.
func dumpState(s *State) string {
	var b strings.Builder
	b.WriteString(s.PM.String())
	for _, r := range s.PM.Handles() {
		for _, t := range s.PM.Handles() {
			fmt.Fprintf(&b, "%s>%s %+v\n", r, t, s.PM.Get(r, t))
		}
	}
	for _, k := range s.ViolationKeys() {
		v := s.Violations[k]
		fmt.Fprintf(&b, "violation %s refs=%v pos=%v\n", k, v.Refs, v.Pos)
	}
	var hs []string
	for h := range s.Prov {
		hs = append(hs, h)
	}
	sort.Strings(hs)
	for _, h := range hs {
		fmt.Fprintf(&b, "prov %s=%+v\n", h, s.Prov[h])
	}
	return b.String()
}

// snapshots lists every State a FuncResult holds.
func snapshots(fr *FuncResult) []*State {
	out := []*State{fr.Entry, fr.Exit}
	for _, m := range []map[lang.Stmt]*State{fr.Before, fr.After, fr.LoopInvariant, fr.LoopBodyExit} {
		for _, s := range m {
			out = append(out, s)
		}
	}
	return out
}

// scribble applies every State and Matrix mutator the transfer rules
// use to c.
func scribble(c *State) {
	hs := append([]string(nil), c.PM.Handles()...)
	for _, h := range hs {
		c.setProv(h, Provenance{Dim: "down", Src: hs[0]})
		c.Retarget(h, c.PM)
		c.invalidateIndexVar("i")
		c.fixViolationsForStore(h, "left", "", c.PM)
		c.fixViolationsForStore(h, "subtrees", "i", c.PM)
	}
	c.ClearProvAlongDim("down")
	for _, h := range hs {
		c.dropProv(h)
	}
	key := ViolationKey{Type: "BinTree", Dim: "down", Kind: Cycle}
	c.ownViolations()
	c.Violations[key] = &Violation{Key: key, Refs: []EdgeRef{{Handle: "t", Field: "left"}}}
	c.PM.UpdateAll(func(_, _ string, e *pathmatrix.Entry) {
		e.RemovePathsUsing("left")
		e.RemovePathsUsing("next")
		e.AddDesc(pathmatrix.PlusDesc("right"))
		e.Alias = pathmatrix.PossibleAlias
	})
	for _, h := range hs {
		c.PM.Kill(h)
		c.PM.RemoveHandle(h)
	}
	c.PM.AddHandle("fresh")
}

// TestStateCloneIsolation: every snapshot in a FuncResult survives
// anything done to clones of it — by several goroutines at once, as the
// planner's parallel dependence tests share one FuncResult. Under -race
// a write that reaches a snapshot (its matrix cells, a violation's
// references, a shared map, or the copy-on-write flags) is reported.
func TestStateCloneIsolation(t *testing.T) {
	prog, err := lang.Parse(isolationSrc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := New(prog).AnalyzeAll()
	if err != nil {
		t.Fatal(err)
	}
	sawViolation, sawProv := false, false
	for _, fn := range []string{"graft", "depth", "probe"} {
		states := snapshots(res.Funcs[fn])
		want := make([]string, len(states))
		for i, s := range states {
			want[i] = dumpState(s)
			sawViolation = sawViolation || len(s.Violations) > 0
			sawProv = sawProv || len(s.Prov) > 0
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, s := range states {
					c := s.Clone()
					scribble(c)
					scribble(c.Clone())
					_ = dumpState(s)
					_ = joinStates(s, c)
				}
			}()
		}
		wg.Wait()
		for i, s := range states {
			if got := dumpState(s); got != want[i] {
				t.Errorf("%s: snapshot %d changed under its clones:\n got:\n%s\nwant:\n%s", fn, i, got, want[i])
			}
		}
	}
	if !sawViolation || !sawProv {
		t.Fatalf("test program no longer exercises violations (%v) and provenance (%v)", sawViolation, sawProv)
	}
}

// TestBlockSharesSnapshots: the state after a statement and the state
// before the next one are the same program point, so the analysis
// stores one snapshot for both.
func TestBlockSharesSnapshots(t *testing.T) {
	prog, fr := analyzeOne(t, polyProgram, "scale")
	stmts := prog.Func("scale").Body.Stmts
	if fr.After[stmts[0]] == nil || fr.After[stmts[0]] != fr.Before[stmts[1]] {
		t.Errorf("After[%T] and Before[%T] are distinct snapshots", stmts[0], stmts[1])
	}
}
