package analysis_test

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/adds"
	"repro/internal/analysis"
	"repro/internal/lang"
	"repro/internal/nbody"
	"repro/internal/parexec"
	"repro/internal/transform"
)

// The differential test behind AnalyzeAll's callee-first order: on
// every input, every function's states — entry, exit, and at every
// loop — match the round-robin oracle in analysis_ref_test.go
// (TestReplayMatchesEagerRecording holds every other statement's), and
// the pointer fields the call rule clears (the effect summaries' pointer
// writes) are the fields the old string-keyed closure named.

// Drivers the root package's equivalence corpus appends (mirrored from
// equivalence_test.go, whose package this one cannot import).
const (
	simChecksumDriver = `
function real sim_checksum(int n, int steps, real theta, real dt) {
  var Octree *p = simulate(n, steps, theta, dt);
  var real s = 0.0;
  while p != NULL {
    s = s + p->posx + p->posy + p->posz;
    p = p->next;
  }
  return s;
}
`
	manyLoopDriver = `
function int run_many(int n) {
  var OneWayList *head = NULL;
  var int i = 0;
  while i < n {
    var OneWayList *t = new OneWayList;
    t->data = i;
    t->next = head;
    head = t;
    i = i + 1;
  }
  main(head);
  var int s = 0;
  var OneWayList *p = head;
  while p != NULL {
    i = i + 1;
    s = s + i * p->data;
    p = p->next;
  }
  return s;
}
`
)

// The path-matrix and figure programs cmd/experiments analyzes (PM1's
// two scale loops, F1's 2-cycle under both list types); PM2, PM3, F5
// and X1 analyze nbody.BarnesHutPSL.
const (
	polyScaleSrc = `
type OneWayList [X]
{ int coef, exp;
  OneWayList *next is uniquely forward along X;
};

procedure scale(OneWayList *head, int c) {
  var OneWayList *p = head;
  while p != NULL {
    p->coef = p->coef * c;
    p = p->next;
  }
}`
	polyScaleNoADDS = `
type ListNode
{ int coef, exp;
  ListNode *next;
};

procedure scale(ListNode *head, int c) {
  var ListNode *p = head;
  while p != NULL {
    p->coef = p->coef * c;
    p = p->next;
  }
}`
	cyclicSrc = `
procedure close(%s *a, %s *b) {
  a->next = b;
  b->next = a;
}`
)

// callerFirstSrc declares a caller before a callee that leaves an active
// violation at its exit; mutualSrc holds a mutually recursive pair, one
// of which breaks the list's promise, under a non-recursive caller.
const (
	callerFirstSrc = adds.OneWayListSrc + `
procedure caller(OneWayList *h) {
  var OneWayList *p = h;
  ring(p);
  while p != NULL {
    p->data = 1;
    p = p->next;
  }
}
procedure ring(OneWayList *h) {
  h->next = h;
}`
	mutualSrc = adds.OneWayListSrc + `
procedure top(OneWayList *h) {
  ping(h, 3);
  var OneWayList *p = h;
  while p != NULL {
    p->data = 0;
    p = p->next;
  }
}
procedure ping(OneWayList *h, int n) {
  if n > 0 {
    pong(h, n - 1);
  }
}
procedure pong(OneWayList *h, int n) {
  if n > 1 {
    h->next = h;
  }
  ping(h, n);
}`
)

// diffInputs lists the inputs by name.
func diffInputs(t *testing.T) map[string]string {
	t.Helper()
	in := map[string]string{
		"poly-normalize":       parexec.PolyNormalizePSL,
		"barnes-hut-force":     nbody.BarnesHutForcePSL,
		"vec-force":            nbody.VecForcePSL,
		"barnes-hut":           nbody.BarnesHutPSL,
		"barnes-hut-sim":       nbody.BarnesHutPSL + simChecksumDriver,
		"many-loop-10x5":       transform.ManyLoopProgramPSL(10, 5),
		"many-loop-10x5-drive": transform.ManyLoopProgramPSL(10, 5) + manyLoopDriver,
		"pm1-scale":            polyScaleSrc,
		"pm1-scale-no-adds":    polyScaleNoADDS,
		"f1-cycle-listnode":    adds.ListNodeSrc + fmt.Sprintf(cyclicSrc, "ListNode", "ListNode"),
		"f1-cycle-onewaylist":  adds.OneWayListSrc + fmt.Sprintf(cyclicSrc, "OneWayList", "OneWayList"),
		"caller-first":         callerFirstSrc,
		"mutual-recursion":     mutualSrc,
	}
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.psl"))
	if err != nil || len(files) == 0 {
		t.Fatalf("testdata: %v (%d files)", err, len(files))
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		in[filepath.Base(f)] = string(src)
	}
	for seed := int64(1); seed <= 200; seed++ {
		in[fmt.Sprintf("generated-%d", seed)] = transform.GenLoopProgramPSL(seed)
	}
	return in
}

func TestAnalyzeAllMatchesReference(t *testing.T) {
	for name, src := range diffInputs(t) {
		prog, err := lang.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if diff := diffAgainstReference(prog); diff != "" {
			t.Errorf("%s: %s", name, diff)
		}
	}
}

// FuzzAnalysisMatchesReference holds AnalyzeAll to the round-robin
// oracle on generated programs (transform.GenLoopProgramPSL), every
// state compared as text.
func FuzzAnalysisMatchesReference(f *testing.F) {
	f.Add(int64(0))
	f.Add(int64(201))
	f.Fuzz(func(t *testing.T, seed int64) {
		prog, err := lang.Parse(transform.GenLoopProgramPSL(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if diff := diffAgainstReference(prog); diff != "" {
			t.Errorf("seed %d: %s", seed, diff)
		}
	})
}

// diffAgainstReference runs both analyses on prog and describes the
// first difference ("" when there is none).
func diffAgainstReference(prog *lang.Program) string {
	got, gotErr := analysis.New(prog).AnalyzeAll()
	want, wantErr := analysis.RefAnalyzeAll(prog)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		return fmt.Sprintf("error %v, reference %v", gotErr, wantErr)
	}
	if gotErr != nil {
		return ""
	}
	for i, f := range prog.Funcs {
		g, w := got.Funcs[f.Name], want.Funcs[f.Name]
		if d := diffStates("entry", g.Entry, w.Entry); d != "" {
			return f.Name + ": " + d
		}
		if d := diffStates("exit", g.Exit, w.Exit); d != "" {
			return f.Name + ": " + d
		}
		for _, m := range []struct {
			name      string
			got, want map[lang.Stmt]*analysis.State
		}{
			{"loop invariant", g.LoopInvariant, w.LoopInvariant},
			{"loop body exit", g.LoopBodyExit, w.LoopBodyExit},
		} {
			if len(m.got) != len(m.want) {
				return fmt.Sprintf("%s: %d %s states, reference %d", f.Name, len(m.got), m.name, len(m.want))
			}
			for s, ws := range m.want {
				if d := diffStates(m.name+" "+s.Pos().String(), m.got[s], ws); d != "" {
					return f.Name + ": " + d
				}
			}
		}
		var fields []string
		for _, w := range got.Effects.FuncSummary(i).PointerWrites() {
			if !slices.Contains(fields, w.Field()) {
				fields = append(fields, w.Field())
			}
		}
		var ref []string
		for field := range analysis.StoredFields(prog, f.Name) {
			ref = append(ref, field)
		}
		sort.Strings(fields)
		sort.Strings(ref)
		if !slices.Equal(fields, ref) {
			return fmt.Sprintf("%s: call rule clears %v, reference %v", f.Name, fields, ref)
		}
	}
	return ""
}

func diffStates(at string, got, want *analysis.State) string {
	if got == nil || want == nil {
		if got != want {
			return fmt.Sprintf("%s: state %v, reference %v", at, got != nil, want != nil)
		}
		return ""
	}
	if g, w := got.String(), want.String(); g != w {
		return fmt.Sprintf("%s:\n%s\nreference:\n%s", at, g, w)
	}
	return ""
}

// TestReplayMatchesEagerRecording: AnalyzeAll records only the states
// the dependence test reads, and the first Before or After of any other
// statement replays its function with recording on. Every statement's
// replayed states render as the reference records them while it
// analyzes (in round-robin order, which reaches the same states), over
// the corpus and 200 generated programs. Concurrent first queries on
// one function share one replay: under -race a second writer is
// reported.
func TestReplayMatchesEagerRecording(t *testing.T) {
	for name, src := range diffInputs(t) {
		prog := lang.MustParse(src)
		got, err := analysis.New(prog).AnalyzeAll()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := analysis.RefAnalyzeAll(prog)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		for _, f := range prog.Funcs {
			g, w := got.Funcs[f.Name], want.Funcs[f.Name]
			var stmts []lang.Stmt
			lang.Walk(f.Body, func(s lang.Stmt) bool {
				stmts = append(stmts, s)
				return true
			})
			var wg sync.WaitGroup
			for q := 0; q < 4; q++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for _, s := range stmts {
						_, _ = g.Before(s), g.After(s)
					}
				}()
			}
			wg.Wait()
			for _, s := range stmts {
				at := fmt.Sprintf("%s %T at %s", f.Name, s, s.Pos())
				if d := diffStates("before "+at, g.Before(s), w.Before(s)); d != "" {
					t.Fatalf("%s: %s", name, d)
				}
				if d := diffStates("after "+at, g.After(s), w.After(s)); d != "" {
					t.Fatalf("%s: %s", name, d)
				}
			}
		}
	}
}

// TestAnalyzesEachFunctionOnceCalleeFirst counts analyses per function
// the way effects counts walks: outside recursion every function is
// analyzed once — a caller declared before a callee that leaves an
// active violation included, where the round-robin order analyzed
// every function of the program at least twice — and a mutually
// recursive pair iterates within its component to the reference's
// exit violations.
func TestAnalyzesEachFunctionOnceCalleeFirst(t *testing.T) {
	violations, err := os.ReadFile(filepath.Join("..", "..", "testdata", "violations.psl"))
	if err != nil {
		t.Fatal(err)
	}
	for name, src := range map[string]string{
		"caller-first":   callerFirstSrc,
		"violations.psl": string(violations),
		"mutual":         mutualSrc,
	} {
		prog := lang.MustParse(src)
		a := analysis.New(prog)
		res, err := a.AnalyzeAll()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ref, err := analysis.RefAnalyzeAll(prog)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		for _, f := range prog.Funcs {
			n, recursive := a.Analyses(f.Name), f.Name == "ping" || f.Name == "pong"
			if !recursive && n != 1 {
				t.Errorf("%s: %s analyzed %d times, want once", name, f.Name, n)
			}
			if recursive && n < 2 {
				t.Errorf("%s: recursive %s analyzed %d times, want its component iterated", name, f.Name, n)
			}
			got, want := res.Funcs[f.Name].Exit.ViolationKeys(), ref.Funcs[f.Name].Exit.ViolationKeys()
			if !slices.Equal(got, want) {
				t.Errorf("%s: %s exit violations %v, reference %v", name, f.Name, got, want)
			}
		}
	}
	// The inputs exercise what they are meant to: the callee's violation
	// reaches the caller declared above it, and the pair's reaches the
	// member that does not store and their caller.
	for _, c := range []struct{ src, fn string }{
		{callerFirstSrc, "caller"}, {mutualSrc, "ping"}, {mutualSrc, "top"},
	} {
		res, err := analysis.New(lang.MustParse(c.src)).AnalyzeAll()
		if err != nil {
			t.Fatalf("%s: %v", c.fn, err)
		}
		if len(res.Funcs[c.fn].Exit.Violations) == 0 {
			t.Errorf("%s: no exit violations, want the callee's", c.fn)
		}
	}
}
