package analysis

import (
	"fmt"
	"slices"
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
	for r := 0; r < s.PM.Len(); r++ {
		for t := 0; t < s.PM.Len(); t++ {
			fmt.Fprintf(&b, "%s>%s %+v\n", s.PM.Name(r), s.PM.Name(t), s.PM.Get(r, t))
		}
	}
	for _, k := range s.ViolationKeys() {
		v := s.Violations[k]
		fmt.Fprintf(&b, "violation %s refs=%v pos=%v\n", k, v.Refs, v.Pos)
	}
	var hs []int
	for h := range s.Prov {
		hs = append(hs, h)
	}
	slices.Sort(hs)
	for _, h := range hs {
		fmt.Fprintf(&b, "prov %s=%+v\n", s.PM.Name(h), s.Prov[h])
	}
	return b.String()
}

// snapshots lists every State a FuncResult holds or replays.
func snapshots(fr *FuncResult) []*State {
	out := []*State{fr.Entry, fr.Exit}
	lang.Walk(fr.an.prog.Funcs[fr.index].Body, func(s lang.Stmt) bool {
		out = append(out, fr.Before(s), fr.After(s))
		return true
	})
	for _, m := range []map[lang.Stmt]*State{fr.LoopInvariant, fr.LoopBodyExit} {
		for _, s := range m {
			out = append(out, s)
		}
	}
	return slices.DeleteFunc(out, func(s *State) bool { return s == nil })
}

// scribble applies every State and Matrix mutator the transfer rules
// use to c.
func scribble(c *State) {
	var hs, dead []int
	for h := 0; h < c.PM.Len(); h++ {
		if c.PM.Live(h) {
			hs = append(hs, h)
		} else {
			dead = append(dead, h)
		}
	}
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
	c.Violations[key] = &Violation{Key: key, Refs: []EdgeRef{{Handle: c.handle("t"), Field: "left"}}}
	c.PM.UpdateAll(func(_, _ int, e *pathmatrix.Entry) {
		e.RemovePathsUsing("left")
		e.RemovePathsUsing("next")
		e.AddDesc(pathmatrix.PlusDesc("right"))
		e.Alias = pathmatrix.PossibleAlias
	})
	for _, h := range hs {
		c.PM.Kill(h)
		c.PM.Drop(h)
	}
	for _, h := range dead { // handles out of scope at c
		c.PM.Declare(h)
	}
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
// before the next one are the same program point, so the analysis keeps
// one snapshot for both — also when the next statement is a loop, whose
// state the analysis records and the replay behind After reuses.
func TestBlockSharesSnapshots(t *testing.T) {
	prog, fr := analyzeOne(t, polyProgram, "scale")
	top := prog.Func("scale").Body.Stmts
	body := top[1].(*lang.WhileStmt).Body.Stmts
	for _, pair := range [][]lang.Stmt{top[:2], body[:2]} {
		if fr.After(pair[0]) == nil || fr.After(pair[0]) != fr.Before(pair[1]) {
			t.Errorf("After(%T) and Before(%T) are distinct snapshots", pair[0], pair[1])
		}
	}
}

// TestReplayReadsWhatTheAnalysisRead: After, for a member of a recursive
// component, gives the states its analysis reached, which read the
// members' exit violations of that round, not those AnalyzeAll ended
// with. The two differ when a component stops at its round cap still
// changing; here they are made to differ after the analysis.
func TestReplayReadsWhatTheAnalysisRead(t *testing.T) {
	prog := lang.MustParse(adds.OneWayListSrc + `
procedure ping(OneWayList *h, int n) {
  if n > 0 {
    pong(h, n - 1);
  }
  h->data = n;
}
procedure pong(OneWayList *h, int n) {
  ping(h, n);
}`)
	a := New(prog)
	res, err := a.AnalyzeAll()
	if err != nil {
		t.Fatal(err)
	}
	stale := ViolationKey{Type: "OneWayList", Dim: "X", Kind: Cycle}
	for i := range prog.Funcs {
		a.exitViols[i] = map[ViolationKey]*Violation{stale: {Key: stale}}
	}
	for _, f := range prog.Funcs {
		lang.Walk(f.Body, func(s lang.Stmt) bool {
			if st := res.Funcs[f.Name].After(s); st != nil && st.Violations[stale] != nil {
				t.Errorf("%s: After(%T) at %s holds an exit violation the analysis did not read", f.Name, s, s.Pos())
			}
			return true
		})
	}
}
