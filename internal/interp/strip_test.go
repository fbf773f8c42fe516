// The VM's strip path: a forall in the shape transform.StripMine emits
// walks its chain once and starts every lane at the helper's NULL guard
// (bcForall, stripWalk). These tests pin what that must not change —
// the answer, the error and the Stats of the lanes' literal skip loops,
// which the walker still runs — and what it must: the links followed.
package interp

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/lang"
	"repro/internal/obs"
)

// stripListSrc is a 37-node list swept by strips of w lanes, each lane
// calling a helper that skips _pe links and guards on NULL, then runs
// body: scalarBody, which no kernel takes (it allocates and prints),
// spinBody, scalarBody after a loop that spends steps, or vectorBody,
// which vectorizes. call is the per-lane statement:
// stripShapeCall is the strip shape; literalCall passes the same lane
// index as an expression, which the recognizer refuses, so the same
// program runs every lane's skip loop literally.
func stripListSrc(w int, call, body string) string {
	return fmt.Sprintf(`
type C [L] { int v; C *next is uniquely forward along L; };
procedure _visit(int _pe, C *p, int k) {
  for _k = 1 to _pe {
    p = p->next;
  }
  if p != NULL {
%s
  }
}
function int main() {
  var C *head = NULL;
  var int i = 0;
  while i < 37 {
    var C *t = new C;
    t->v = i;
    t->next = head;
    head = t;
    i = i + 1;
  }
  var C *p = head;
  var int k = 3;
  while p != NULL {
    forall _pe = 0 to %[2]d { %[3]s }
    for _pe = 0 to %[2]d { p = p->next; }
  }
  var int s = 0;
  p = head;
  while p != NULL { s = s * 7 + p->v; p = p->next; }
  return s;
}`, body, w-1, call)
}

const (
	stripShapeCall = "_visit(_pe, p, k);"
	literalCall    = "_visit(_pe + 0, p, k);"
	laneAgainCall  = "_visit(_pe, p, _pe);"
	scalarBody     = "    var C *t = new C;\n    t->v = p->v * k;\n    print(_pe, p->v + t->v);"
	vectorBody     = "    p->v = p->v * k - 1;"
	spinBody       = "    var int j = 0;\n    while j < 30 { j = j + 1; }\n" + scalarBody
)

// TestStripWalksItsChainOnce: a scalar strip of W lanes starting at
// lane lo follows lo+W−1 links, one walk for all its lanes, where the
// lanes' own skip loops follow W(W−1)/2 between them — and answers as
// the walker does.
func TestStripWalksItsChainOnce(t *testing.T) {
	for _, w := range []int{1, 3, 8, 32, 128} {
		prog := lang.MustParse(stripListSrc(w, stripShapeCall, scalarBody))
		ref := runStrip(prog, Config{Engine: EngineWalk})
		for _, eng := range []Engine{EngineBytecode, EngineKernel} {
			var out bytes.Buffer
			ip := New(prog, Config{Engine: eng, Output: &out})
			got := runStripOn(ip)
			got.output = out.String()
			if got != ref {
				t.Errorf("width %d, %s: %+v, walker %+v", w, eng, got, ref)
			}
			strips := int64((37 + w - 1) / w)
			if want := strips * int64(w-1); ip.stripHops != want {
				t.Errorf("width %d, %s: %d strips followed %d links, want %d (W−1 a strip; the lanes' skip loops follow %d)",
					w, eng, strips, ip.stripHops, want, strips*int64(w*(w-1)/2))
			}
		}
	}
}

// stripRun is everything a caller observes of one run.
type stripRun struct {
	value, output, err string
	st                 Stats
}

func runStrip(prog *lang.Program, cfg Config) stripRun {
	var out bytes.Buffer
	if cfg.Output == nil {
		cfg.Output = &out
	}
	r := runStripOn(New(prog, cfg))
	r.output = out.String()
	return r
}

func runStripOn(ip *Interp) stripRun {
	v, err := ip.Call("main")
	r := stripRun{value: v.String(), st: ip.Stats()}
	if err != nil {
		r.value, r.err = "", err.Error()
	}
	return r
}

// cancelAfter is an output stream that cancels its context once the
// output holds line.
type cancelAfter struct {
	out    bytes.Buffer
	line   string
	cancel context.CancelFunc
}

func (c *cancelAfter) Write(p []byte) (int, error) {
	n, err := c.out.Write(p)
	if strings.Contains(c.out.String(), c.line) {
		c.cancel()
	}
	return n, err
}

// TestStripFallbacks: where a lane's skip loop would fail — an empty
// pointer array met mid-strip, a step budget that runs out inside it, a
// run cancelled mid-strip — the strip path runs that lane literally,
// and the run ends as the literal path ends it and as the walker does:
// same value, output, error text and position, and Stats.
func TestStripFallbacks(t *testing.T) {
	const w = 16 // the third strip starts at node 32: lanes 5 and up meet the list's end
	strip := lang.MustParse(stripListSrc(w, stripShapeCall, scalarBody))
	literal := lang.MustParse(stripListSrc(w, literalCall, scalarBody))

	// Node 20 of the list (counting from the head) is given an empty
	// next array between building the list and sweeping it, which no
	// program can declare: the walk of the strip that reaches it stops
	// there, the other way a strip's walk ends short of its last lane.
	t.Run("empty pointer array mid-strip", func(t *testing.T) {
		run := func(w int, body string, cfg Config) stripRun {
			prog := lang.MustParse(stripSweepSrc(w, body))
			var out bytes.Buffer
			cfg.Output = &out
			ip := New(prog, cfg)
			head, err := ip.Call("build")
			if err != nil {
				t.Fatal(err)
			}
			n := head.N
			for i := 0; i < 20; i++ {
				n = n.parr[0][0]
			}
			n.parr[0] = nil
			v, err := ip.Call("sweep", head)
			r := stripRun{value: v.String(), st: ip.Stats(), output: out.String()}
			if err != nil {
				r.value, r.err = "", err.Error()
			}
			return r
		}
		ref := run(w, scalarBody, Config{Engine: EngineWalk})
		if !strings.HasPrefix(ref.err, "5:10: interp: index 0 out of range for C.next[0]") || !strings.Contains(ref.output, "\n4 ") {
			t.Fatalf("walker: %+v, want the empty array in lane 5's skip loop, after the strip's first lanes", ref)
		}
		for _, eng := range []Engine{EngineBytecode, EngineKernel} {
			if got := run(w, scalarBody, Config{Engine: eng}); got != ref {
				t.Errorf("%s:\n got %+v\nwant %+v", eng, got, ref)
			}
		}
		// A vector body: the kernel takes the strips whose walk reached
		// every lane, before node 20, and declines the one that did not,
		// whose lanes from the empty array on then fail literally.
		for w, vectorized := range map[int]int64{16: 1, 8: 2} {
			ref := run(w, vectorBody, Config{Engine: EngineWalk})
			if !strings.Contains(ref.err, "index 0 out of range") {
				t.Fatalf("vector body at width %d on the walker: %+v", w, ref)
			}
			prof := obs.NewForallProfiler()
			if got := run(w, vectorBody, Config{Engine: EngineKernel, Profiler: prof}); got != ref {
				t.Errorf("vector body at width %d, kernel:\n got %+v\nwant %+v", w, got, ref)
			}
			if rep := prof.Report(); len(rep) != 1 || !rep[0].Kernel || rep[0].Barriers != vectorized {
				t.Errorf("vector body at width %d: profile %+v, want %d vector strips", w, rep, vectorized)
			}
		}
	})

	// A lane binds every argument but the first from the caller's
	// registers, which never hold the lane index: a call that passes it
	// again is no strip, and each lane gets its own index.
	t.Run("lane index passed again", func(t *testing.T) {
		for _, body := range []string{scalarBody, vectorBody} {
			prog := lang.MustParse(stripListSrc(w, laneAgainCall, body))
			ref := runStrip(prog, Config{Engine: EngineWalk})
			for _, eng := range []Engine{EngineBytecode, EngineKernel} {
				if got := runStrip(prog, Config{Engine: eng}); got != ref {
					t.Errorf("%s, body %q:\n got %+v\nwant %+v", eng, body, got, ref)
				}
			}
		}
	})

	// A budget that runs out inside lane 11's skip loop in the second
	// strip. Lane 10 prints "10 40" as its last statement; lane 11's call
	// and its for statement take two steps, and the tenth step after
	// those is the loop's sixth advance (5:5), the eleventh over budget.
	// With scalarBody the strip's whole prologue cannot fit the budget
	// left at its entry, so the strip runs literally; spinBody's lanes
	// spend enough that it does fit, so the strip walks and lane 11 is
	// the one that runs literally.
	t.Run("MaxSteps inside a skip loop", func(t *testing.T) {
		for _, body := range []string{scalarBody, spinBody} {
			strip := lang.MustParse(stripListSrc(w, stripShapeCall, body))
			literal := lang.MustParse(stripListSrc(w, literalCall, body))
			limit := stepsAtLine(t, strip, "10 40\n") + 2 + 10
			ref := runStrip(strip, Config{Engine: EngineWalk, MaxSteps: limit})
			if !strings.HasPrefix(ref.err, "5:5: interp: step limit exceeded") {
				t.Fatalf("walker: %q, want the step limit inside the skip loop (5:5)", ref.err)
			}
			for _, eng := range []Engine{EngineBytecode, EngineKernel} {
				if want := runStrip(literal, Config{Engine: eng, MaxSteps: limit}); want != ref {
					t.Errorf("%s, body %q, literal lanes:\n got %+v\nwant %+v (walker)", eng, body, want, ref)
				}
				var out bytes.Buffer
				ip := New(strip, Config{Engine: eng, MaxSteps: limit, Output: &out})
				got := runStripOn(ip)
				got.output = out.String()
				if got != ref {
					t.Errorf("%s, body %q:\n got %+v\nwant %+v (walker)", eng, body, got, ref)
				}
				// Two strips walk (W−1 links each) with spinBody, one
				// with scalarBody.
				walks := map[string]int64{scalarBody: 1, spinBody: 2}[body]
				if ip.stripHops != walks*(w-1) {
					t.Errorf("%s, body %q: %d links followed, want %d", eng, body, ip.stripHops, walks*(w-1))
				}
			}
		}
	})

	// The run is cancelled by lane 3's print in the second strip ("3 68").
	t.Run("ctx cancelled mid-strip", func(t *testing.T) {
		run := func(prog *lang.Program, eng Engine) stripRun {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			out := &cancelAfter{line: "3 68\n", cancel: cancel}
			r := runStrip(prog, Config{Engine: eng, Ctx: ctx, Output: out})
			r.output = out.out.String()
			return r
		}
		ref := run(strip, EngineWalk)
		if !strings.Contains(ref.err, "run cancelled: context canceled") || !strings.HasSuffix(ref.output, "3 68\n") {
			t.Fatalf("walker: %+v, want the cancellation right after lane 3 of the second strip", ref)
		}
		for _, eng := range []Engine{EngineBytecode, EngineKernel} {
			if got := run(literal, eng); got != ref {
				t.Errorf("%s, literal lanes:\n got %+v\nwant %+v (walker)", eng, got, ref)
			}
			if got := run(strip, eng); got != ref {
				t.Errorf("%s:\n got %+v\nwant %+v (walker)", eng, got, ref)
			}
		}
	})
}

// stripSweepSrc is stripListSrc's program split in two: build returns
// the list, and sweep runs the strips over it and returns the checksum.
func stripSweepSrc(w int, body string) string {
	src := stripListSrc(w, stripShapeCall, body)
	src = strings.Replace(src, "function int main() {", "function C * build() {", 1)
	src = strings.Replace(src, "  var C *p = head;\n", "  return head;\n}\nfunction int sweep(C *head) {\n  var C *p = head;\n", 1)
	return src
}

// stepsAt is an output stream that records the run's step count when
// the output first holds line.
type stepsAt struct {
	out   bytes.Buffer
	line  string
	ip    *Interp
	steps int64
}

func (s *stepsAt) Write(p []byte) (int, error) {
	n, err := s.out.Write(p)
	if s.steps == 0 && strings.Contains(s.out.String(), s.line) {
		s.steps = s.ip.Stats().Steps
	}
	return n, err
}

// stepsAtLine is how many steps the walker has taken when prog first
// prints line.
func stepsAtLine(t *testing.T, prog *lang.Program, line string) int64 {
	t.Helper()
	out := &stepsAt{line: line}
	out.ip = New(prog, Config{Engine: EngineWalk, Output: out})
	if _, err := out.ip.Call("main"); err != nil {
		t.Fatal(err)
	}
	if out.steps == 0 {
		t.Fatalf("the run never printed %q", line)
	}
	return out.steps
}

// TestWideStripStopsOnTheBudget: a strip far wider than its budget can
// pay for — 40M lanes, of which the 50M-step budget covers the entry
// charge and about three thousand lanes' skip loops — runs literally
// and fails on the budget as the literal path does, having walked no
// link and sized nothing by its width.
func TestWideStripStopsOnTheBudget(t *testing.T) {
	const w, limit = 40_000_000, 50_000_000
	for _, body := range []string{scalarBody, vectorBody} {
		strip := lang.MustParse(stripListSrc(w, stripShapeCall, body))
		literal := lang.MustParse(stripListSrc(w, literalCall, body))
		for _, eng := range []Engine{EngineBytecode, EngineKernel} {
			want := runStrip(literal, Config{Engine: eng, MaxSteps: limit})
			if !strings.Contains(want.err, "step limit exceeded") {
				t.Fatalf("%s, literal lanes: %+v, want the step limit", eng, want.err)
			}
			var out bytes.Buffer
			ip := New(strip, Config{Engine: eng, MaxSteps: limit, Output: &out})
			got := runStripOn(ip)
			got.output = out.String()
			if got != want {
				t.Errorf("%s, body %q:\n got %+v\nwant %+v (literal lanes)", eng, body, got.err, want.err)
			}
			if ip.stripHops != 0 || cap(ip.lanes) != 0 {
				t.Errorf("%s, body %q: followed %d links and held %d lanes", eng, body, ip.stripHops, cap(ip.lanes))
			}
		}
	}
}

// TestMaskedStripsVectorize: a vector strip runs each instruction on
// exactly the lanes the scalar engines run it on. An operand of && or ||
// runs only where it is evaluated, so a guard that keeps a division away
// from a zero divisor keeps the strip on the vector path: the list holds
// v = 0, and the first two bodies divide by v only behind the guard, in
// the then arm (&&) or the else arm (||). The masks of two ifs in a row
// overlap — a lane can take both — so a value that crosses the second if
// is still the one its lane computed: a variable loaded from a field the
// first if then stores, one loaded under the first if only, and one
// loaded before the first if reassigns it. Every strip of 16 lanes, the
// last one's lanes past the list's end included, completes as a kernel,
// and the run equals the walker's and the scalar VM's.
func TestMaskedStripsVectorize(t *testing.T) {
	const w = 16
	for _, body := range []string{
		"    if p->v != 0 && 60 / p->v > 4 { p->v = p->v * k; } else { p->v = p->v + 1; }",
		"    if p->v == 0 || 60 / p->v > 4 { p->v = p->v + 1; } else { p->v = p->v * k - 60 / p->v; }",
		"    var int t = p->v;\n    if p->v > 20 { p->v = 2; }\n    if p->v % 2 == 0 { p->v = p->v + t; }",
		"    var int t = 1;\n    if p->v > 20 { t = p->v; }\n    if p->v % 2 == 0 { p->v = p->v + t; }",
		"    var int t = p->v;\n    if p->v > 20 { t = 5; }\n    if p->v % 2 == 0 { p->v = p->v + t; }",
	} {
		prog := lang.MustParse(stripListSrc(w, stripShapeCall, body))
		ref := runStrip(prog, Config{Engine: EngineWalk})
		if ref.err != "" {
			t.Fatalf("walker, body %q: %s", body, ref.err)
		}
		if got := runStrip(prog, Config{Engine: EngineBytecode}); got != ref {
			t.Errorf("bytecode, body %q:\n got %+v\nwant %+v", body, got, ref)
		}
		prof := obs.NewForallProfiler()
		if got := runStrip(prog, Config{Engine: EngineKernel, Profiler: prof}); got != ref {
			t.Errorf("kernel, body %q:\n got %+v\nwant %+v", body, got, ref)
		}
		if rep := prof.Report(); len(rep) != 1 || !rep[0].Kernel || rep[0].Barriers != (37+w-1)/w {
			t.Errorf("body %q: profile %+v, want all %d strips on the vector path", body, rep, (37+w-1)/w)
		}
	}
}
