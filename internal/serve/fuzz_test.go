package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// hugeForall is the CI smoke's hostile request: four trillion
// iterations of nothing, refused by the step budget at entry.
const hugeForall = `procedure main() { forall i = 0 to 4000000000000 { } }`

// FuzzRunRequest: arbitrary bytes as a POST /run body, against a server
// with small budgets. Whatever arrives, the handler does not panic —
// it is called directly, because net/http would swallow the panic the
// fuzzer is there to find — answers with a documented status and a
// JSON body, returns within a bound that only a hang can miss, and
// leaves the gate empty. FuzzDecodeRequest covers the decode half
// against encoding/json; this is everything behind it.
func FuzzRunRequest(f *testing.F) {
	for _, body := range decodeSeeds(f) {
		f.Add(body)
	}
	for _, parallel := range []bool{false, true} {
		body, err := json.Marshal(Request{Source: hugeForall, Parallel: parallel})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	s := New(Config{
		MaxSteps:       20_000,
		MaxAllocs:      1_000,
		MaxOutputBytes: 4 << 10,
		MaxSourceBytes: 64 << 10,
		MaxPEs:         4,
		DefaultTimeout: 100 * time.Millisecond,
		MaxTimeout:     200 * time.Millisecond,
	})
	f.Cleanup(s.Close)
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/run", bytes.NewReader(body)))
		el := time.Since(t0)
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge,
			http.StatusServiceUnavailable:
		default:
			t.Errorf("body %q: status %d is not in the documented mapping", body, rec.Code)
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Errorf("body %q: reply is not JSON: %q", body, rec.Body)
		}
		// A 200 ms deadline plus an unpreemptible but size-bounded front
		// end; the bound is two orders above both.
		if el > 10*time.Second {
			t.Errorf("body %q: answered after %v", body, el)
		}
		if q := s.Stats().Queue; q.Running != 0 || q.Depth != 0 {
			t.Errorf("body %q: gate left at %+v", body, q)
		}
	})
}
