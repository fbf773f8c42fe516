package rangetree

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func somePoints() []Point {
	return []Point{
		{1, 5, 0}, {2, 3, 1}, {4, 8, 2}, {5, 1, 3},
		{7, 6, 4}, {8, 2, 5}, {9, 9, 6}, {11, 4, 7},
	}
}

func TestBuildAndVerify(t *testing.T) {
	for n := 1; n <= 40; n++ {
		var pts []Point
		r := rand.New(rand.NewSource(int64(n)))
		for i := 0; i < n; i++ {
			pts = append(pts, Point{X: r.Float64() * 100, Y: r.Float64() * 100, ID: i})
		}
		tr := Build(pts)
		if tr.Len() != n {
			t.Fatalf("n=%d: len=%d", n, tr.Len())
		}
		if err := tr.Verify(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
	empty := Build(nil)
	if empty.Len() != 0 || empty.Verify() != nil {
		t.Error("empty tree")
	}
}

func TestLeavesOrder(t *testing.T) {
	tr := Build(somePoints())
	leaves := tr.Leaves()
	for i := 1; i < len(leaves); i++ {
		if leaves[i].X < leaves[i-1].X {
			t.Fatalf("leaves not x-sorted: %v", leaves)
		}
	}
	if len(leaves) != 8 {
		t.Errorf("leaves = %d", len(leaves))
	}
}

func TestQueryX(t *testing.T) {
	tr := Build(somePoints())
	got := tr.QueryX(4, 8)
	ids := idsOf(got)
	if !reflect.DeepEqual(ids, []int{2, 3, 4, 5}) {
		t.Errorf("x in [4,8]: ids = %v", ids)
	}
	if len(tr.QueryX(100, 200)) != 0 {
		t.Error("empty range")
	}
	if len(tr.QueryX(8, 4)) != 0 {
		t.Error("inverted range")
	}
	all := tr.QueryX(-1, 100)
	if len(all) != 8 {
		t.Errorf("full range = %d", len(all))
	}
}

func TestQueryRect(t *testing.T) {
	tr := Build(somePoints())
	// The paper's query: "find all points within the bounding rectangle".
	got := tr.QueryRect(2, 2, 8, 6)
	ids := idsOf(got)
	// Points with x∈[2,8], y∈[2,6]: (2,3), (7,6), (8,2).
	if !reflect.DeepEqual(ids, []int{1, 4, 5}) {
		t.Errorf("rect ids = %v (points %v)", ids, got)
	}
	if len(tr.QueryRect(5, 5, 4, 6)) != 0 {
		t.Error("inverted rect")
	}
}

func idsOf(pts []Point) []int {
	ids := make([]int, len(pts))
	for i, p := range pts {
		ids[i] = p.ID
	}
	sort.Ints(ids)
	return ids
}

// TestQuickRectAgainstBruteForce: QueryRect matches the O(n) scan.
func TestQuickRectAgainstBruteForce(t *testing.T) {
	f := func(seed int64, nRaw, rect uint8) bool {
		n := int(nRaw%50) + 1
		r := rand.New(rand.NewSource(seed))
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{X: float64(r.Intn(20)), Y: float64(r.Intn(20)), ID: i}
		}
		tr := Build(pts)
		if tr.Verify() != nil {
			return false
		}
		x1 := float64(rect % 10)
		y1 := float64((rect / 2) % 10)
		x2 := x1 + float64(rect%7)
		y2 := y1 + float64(rect%5)
		got := idsOf(tr.QueryRect(x1, y1, x2, y2))
		var want []int
		for _, p := range pts {
			if p.X >= x1 && p.X <= x2 && p.Y >= y1 && p.Y <= y2 {
				want = append(want, p.ID)
			}
		}
		sort.Ints(want)
		if want == nil {
			want = []int{}
		}
		if got == nil {
			got = []int{}
		}
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickXQueryAgainstBruteForce: interval query matches the scan.
func TestQuickXQueryAgainstBruteForce(t *testing.T) {
	f := func(seed int64, nRaw, span uint8) bool {
		n := int(nRaw%60) + 1
		r := rand.New(rand.NewSource(seed))
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{X: float64(r.Intn(30)), Y: float64(r.Intn(30)), ID: i}
		}
		tr := Build(pts)
		x1 := float64(span % 15)
		x2 := x1 + float64(span%9)
		got := idsOf(tr.QueryX(x1, x2))
		var want []int
		for _, p := range pts {
			if p.X >= x1 && p.X <= x2 {
				want = append(want, p.ID)
			}
		}
		sort.Ints(want)
		if want == nil {
			want = []int{}
		}
		if got == nil {
			got = []int{}
		}
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestDuplicateCoordinates(t *testing.T) {
	pts := []Point{{1, 1, 0}, {1, 1, 1}, {1, 2, 2}, {2, 1, 3}}
	tr := Build(pts)
	if err := tr.Verify(); err != nil {
		t.Fatal(err)
	}
	if got := len(tr.QueryRect(1, 1, 1, 1)); got != 2 {
		t.Errorf("duplicates found = %d", got)
	}
}
