package transform

import (
	"fmt"
	"math/rand"
	"regexp"
	"strings"
	"testing"

	"repro/internal/lang"
)

// pointerLoop matches the head of a generated list loop.
var pointerLoop = regexp.MustCompile(`^\s*while (\w+) != NULL \{$`)

// renameTwinPSL derives, from seed, a generated program (GenLoopProgramPSL)
// with one nested block inserted at the top of a list loop's body in a
// generated procedure: the block's condition reads an outer pointer or
// scalar, and inside it a declaration redeclares that name and uses it.
// twin is the same program with the inner variable named fresh. ok is
// false when the program has no list loop in a generated procedure.
func renameTwinPSL(seed int64) (prog, twin string, ok bool) {
	r := rand.New(rand.NewSource(seed))
	lines := strings.SplitAfter(GenLoopProgramPSL(seed), "\n")
	var loops []int
	inGenerated := false
	for i, l := range lines {
		inGenerated = inGenerated || strings.HasPrefix(l, "procedure f0(")
		if inGenerated && pointerLoop.MatchString(strings.TrimSuffix(l, "\n")) {
			loops = append(loops, i)
		}
	}
	if len(loops) == 0 {
		return "", "", false
	}
	at := loops[r.Intn(len(loops))]
	x := pointerLoop.FindStringSubmatch(strings.TrimSuffix(lines[at], "\n"))[1]
	// Every generated procedure has the parameters head, other and n and
	// the local s in scope at each of its loops.
	var cond, block string
	switch name := []string{"head", "other", "n", "s"}[r.Intn(4)]; name {
	case "head", "other":
		cond = name + " != NULL"
		block = []string{
			"var OneWayList *INNER = X;\nINNER->data = INNER->data + 1;\n",
			"var OneWayList *INNER = X->next;\nif INNER != NULL {\nX->data = INNER->data + 1;\n}\n",
			"var OneWayList *INNER = X;\nINNER = INNER->next;\nif INNER != NULL {\nINNER->data = 0;\n}\n",
		}[r.Intn(3)]
	default:
		cond = fmt.Sprintf("%s > %d", name, r.Intn(9))
		block = []string{
			"var int INNER = X->data;\nX->data = INNER + 1;\n",
			"var int INNER = 2;\nINNER = INNER + 1;\nX->data = X->data + INNER;\n",
		}[r.Intn(2)]
	}
	name := strings.Fields(cond)[0]
	block = strings.ReplaceAll(block, "X", x)
	insert := func(inner string) string {
		return strings.Join(lines[:at+1], "") + "if " + cond + " {\n" +
			strings.ReplaceAll(block, "INNER", inner) + "}\n" + strings.Join(lines[at+1:], "")
	}
	return insert(name), insert("fresh"), true
}

// FuzzRenameTwins: a nested declaration that reuses a name the loop
// body reads from outside plans exactly as its twin with the inner name
// fresh — every verdict, reason and helper alike. The seeds 1–50 run in
// tier-1.
func FuzzRenameTwins(f *testing.F) {
	for seed := int64(1); seed <= 50; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		src, twinSrc, ok := renameTwinPSL(seed)
		if !ok {
			t.Skip("no list loop in a generated procedure")
		}
		prog, err := lang.Parse(src)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
		twin, err := lang.Parse(twinSrc)
		if err != nil {
			t.Fatalf("seed %d (twin): %v\n%s", seed, err, twinSrc)
		}
		plan, err := AutoParallelize(prog, 4)
		if err != nil {
			t.Fatalf("seed %d: AutoParallelize: %v", seed, err)
		}
		twinPlan, err := AutoParallelize(twin, 4)
		if err != nil {
			t.Fatalf("seed %d: AutoParallelize (twin): %v", seed, err)
		}
		if got, want := plan.String(), twinPlan.String(); got != want {
			t.Errorf("seed %d: plan differs from the renamed twin's:\n%s\n--- twin ---\n%s\n--- program ---\n%s", seed, got, want, src)
		}
	})
}
