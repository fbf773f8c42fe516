// Tests for the request decoder (decode.go): the differential against
// encoding/json, that the bodies clients send take the single pass and
// what it allocates, the pooled body buffer, and the router/backend
// agreement one decode function buys.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/nbody"
	"repro/internal/parexec"
)

// hotBodies are the request bodies the benchmark and the load
// generator keep hot: every served program, serial and planned, as
// encoding/json marshals a Request.
func hotBodies(t testing.TB) map[string][]byte {
	t.Helper()
	progs := []Program{
		{Name: "barneshut", Source: nbody.BarnesHutPSL, Fn: "simulate"},
		{Name: "vecforce", Source: nbody.VecForcePSL, Fn: nbody.VecForceFunc},
		{Name: "polynorm", Source: parexec.PolyNormalizePSL, Fn: "run"},
	}
	corpus, err := LoadCorpus(filepath.Join("..", "..", "testdata"))
	if err != nil {
		t.Fatal(err)
	}
	progs = append(progs, corpus...)
	out := map[string][]byte{}
	for _, p := range progs {
		for _, auto := range []bool{false, true} {
			req := Request{Source: p.Source, Fn: p.Fn, Args: []json.Number{"64", "4", "0.5"}, Seed: 1<<64 - 1}
			name := p.Name + "/serial"
			if auto {
				req.Auto, req.PEs = true, 2
				name = p.Name + "/auto"
			}
			body, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			out[name] = body
		}
	}
	return out
}

// vecForceBody is the benchmark's vec_sweep request, ≈ 12 kB.
func vecForceBody(t testing.TB) []byte {
	return hotBodies(t)["vecforce/auto"]
}

func decodeJSON(body []byte) (Request, error) {
	var req Request
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&req)
	return req, err
}

// decodeSeeds is the decoder's fuzz corpus: the hot bodies, then every
// shape of envelope encoding/json and the single pass could disagree
// on. FuzzRunRequest starts from it too.
func decodeSeeds(t testing.TB) [][]byte {
	var seeds [][]byte
	for _, body := range hotBodies(t) {
		seeds = append(seeds, body)
	}
	for _, s := range []string{
		`{}`,
		`{"source":"a < b && b > c -> d","fn":"main"}`, // as jq writes it: raw < > &
		`{"Source":"x"}`,
		`{"SOURCE":"x","source":"y"}`,
		`{"source":"x","source":"y"}`,
		`{"sourc\u0065":"x"}`,
		`{"source":"x","args":["1"]}`,
		`{"source":"x","args":null}`,
		`{"source":"x","args":[]}`,
		`{"source":"x","args":[ -1.5e+3 , 0 ,2E9]}`,
		`{"source":"x","args":[01]}`,
		`{"source":"x","args":[1,]}`,
		`{"source":"x","args":[[1]]}`,
		`{"source":"x","pes":1e0}`,
		`{"source":"x","pes":-1}`,
		`{"source":"x","pes":007}`,
		`{"source":"x","pes":"2"}`,
		`{"source":"x","pes":9223372036854775808}`,
		`{"source":"x","timeout_ms":9223372036854775807}`,
		`{"source":"x","timeout_ms":9223372036854775808}`,
		`{"source":"x","seed":18446744073709551615}`,
		`{"source":"x","seed":18446744073709551616}`,
		`{"source":"\ud83d\ude00"}`,
		`{"source":"\ud800"}`,
		`{"source":"\u00e9\u20ac\uffff\u0000\/\b\f\r"}`,
		`{"source":"\x"}`,
		`{"source":"\u12g4"}`,
		"{\"source\":\"a\x01b\"}",
		"{\"source\":\"a\xffb\"}",
		"{\"source\":\"caf\xc3\xa9 \xe2\x82\xac \xef\xbf\xbd\"}",
		"{\"source\":\"\xed\xa0\x80\"}",
		" \n\t{ \"source\" : \"x\" , \"auto\" : true , \"profile\":false }",
		`{"source":"x"} trailing garbage`,
		`{"source":"x"}{"source":"y"}`,
		`{"source":"x","auto":truex}`,
		`{"source":"x","auto":null}`,
		`{"source":null}`,
		`{"source":"x",}`,
		`{"source":"x"`,
		`{"source":"x","extra":[[[[1,{"a":[2]}]]]]}`,
		`{"source":"x","-":"y","TraceID":"z"}`,
		`["source"]`,
		`"source"`,
		`null`,
		``,
	} {
		seeds = append(seeds, []byte(s))
	}
	return seeds
}

// FuzzDecodeRequest: on any bytes, DecodeRequest and encoding/json
// agree on whether the body decodes, on the Request, and on the error
// text — and the Request survives its body being overwritten.
func FuzzDecodeRequest(f *testing.F) {
	for _, body := range decodeSeeds(f) {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		want, wantErr := decodeJSON(body)
		scratch := append([]byte(nil), body...)
		got, err := DecodeRequest(scratch)
		for i := range scratch {
			scratch[i] = 'X'
		}
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("body %q: DecodeRequest error %v, encoding/json %v", body, err, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("body %q:\n DecodeRequest %+v\n encoding/json %+v", body, got, want)
		}
	})
}

// TestHotBodiesTakeFastPath: the bodies the service is measured on are
// decoded by the single pass, never by the encoding/json fallback.
func TestHotBodiesTakeFastPath(t *testing.T) {
	for name, body := range hotBodies(t) {
		got, ok := decodeFast(body)
		if !ok {
			t.Errorf("%s: %d-byte hot body fell back to encoding/json", name, len(body))
			continue
		}
		if want, err := decodeJSON(body); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: fast path decoded %+v, encoding/json %+v (%v)", name, got, want, err)
		}
	}
}

// TestDecodeRequestAllocs pins what the single pass costs, as counts:
// decoding the vec_sweep body allocates the source, the function name,
// the args slice and the one string its Numbers share — and no byte of
// the source twice.
func TestDecodeRequestAllocs(t *testing.T) {
	body := vecForceBody(t)
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := DecodeRequest(body); err != nil {
			t.Fatal(err)
		}
	})
	runtime.ReadMemStats(&after)
	// AllocsPerRun makes runs+1 calls.
	bytesPer := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1)
	if allocs > 4 {
		t.Errorf("decoding the %d-byte body allocates %.0f objects, want ≤ 4", len(body), allocs)
	}
	if limit := float64(len(body) + 1024); bytesPer > limit {
		t.Errorf("decoding the %d-byte body allocates %.0f bytes, want ≤ %.0f", len(body), bytesPer, limit)
	}
}

// TestBodyPoolDropsLargeBuffers: a buffer grown past maxPooledBody is
// left to the collector instead of going back to the pool.
func TestBodyPoolDropsLargeBuffers(t *testing.T) {
	big := new(bytes.Buffer)
	big.Grow(maxPooledBody + 1)
	releaseBody(big)
	for i := 0; i < 16; i++ {
		if got := bodyPool.Get().(*bytes.Buffer); got == big {
			t.Fatalf("a %d-byte buffer came back from the pool", big.Cap())
		}
	}
}

// TestPooledBodyKeepAlive posts two different programs back to back on
// one keep-alive connection, from several clients at once: the second
// request of a connection reuses a pooled body buffer, and each reply
// must be its own program's (CI runs this under -race).
func TestPooledBodyKeepAlive(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	progs := []struct{ source, result string }{
		{addSrc, "42"},
		{strings.Replace(addSrc, "add(40, 2)", "add(40, 3)", 1), "43"},
	}
	errs := make(chan error, 4)
	for c := 0; c < cap(errs); c++ {
		go func() {
			client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
			defer client.CloseIdleConnections()
			for i := 0; i < 50; i++ {
				p := progs[i%2]
				resp, status, _, err := postRun(context.Background(), client, ts.URL, Request{Source: p.source})
				if err != nil || status != http.StatusOK || resp.Result != p.result {
					errs <- fmt.Errorf("program returning %s: got %q (status %d, %v %s)", p.result, resp.Result, status, err, resp.Error)
					return
				}
			}
			errs <- nil
		}()
	}
	for c := 0; c < cap(errs); c++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// TestRouterAndBackendDecodeAlike: a body gets the same status, and the
// same program's answer, posted to a backend directly, through a
// proxying router and through an embedded router — including bodies
// encoding/json reads differently as a stream than as a document (bytes
// after the object), by key case, or by repetition.
// One decode function makes the router's ring key the backend's cache
// key.
func TestRouterAndBackendDecodeAlike(t *testing.T) {
	_, urls := startFleet(t, 2, Config{})
	proxy := httptest.NewServer(newTestRouter(t, RouterConfig{Backends: urls, HealthInterval: 10 * time.Second}).Handler())
	defer proxy.Close()
	embedded := httptest.NewServer(newTestRouter(t, RouterConfig{
		Embedded: []*Server{newTestServer(t, Config{}), newTestServer(t, Config{})}}).Handler())
	defer embedded.Close()
	direct := httptest.NewServer(newTestServer(t, Config{}).Handler())
	defer direct.Close()

	post := func(url string, body []byte) (int, Response) {
		t.Helper()
		r, err := http.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		data, err := io.ReadAll(r.Body)
		if err != nil {
			t.Fatal(err)
		}
		var resp Response
		json.Unmarshal(data, &resp) // error replies leave it zero
		return r.StatusCode, resp
	}
	src, _ := json.Marshal(addSrc)
	other, _ := json.Marshal(strings.Replace(addSrc, "add(40, 2)", "add(40, 3)", 1))
	for _, body := range []string{
		`{"source":` + string(src) + `}`,
		`{"source":` + string(src) + `} x`,
		`{"source":` + string(src) + `}{"source":` + string(other) + `}`,
		`{"SOURCE":` + string(src) + `}`,
		`{"source":` + string(other) + `,"source":` + string(src) + `}`,
		`{"source":` + string(src) + `,"pes":"two"}`,
		`{"source":` + string(src) + `,"unknown":{"source":` + string(other) + `}}`,
		`{"source":` + string(src),
		`[` + string(src) + `]`,
	} {
		want, wantErr := DecodeRequest([]byte(body))
		wantStatus, wantResp := post(direct.URL+"/run", []byte(body))
		if (wantErr == nil) != (wantStatus == http.StatusOK) {
			t.Errorf("body %.40q…: decode error %v but direct status %d", body, wantErr, wantStatus)
		}
		if wantErr == nil && (want.Source != addSrc || wantResp.Result != "42") {
			t.Errorf("body %.40q…: decoded another program (result %q)", body, wantResp.Result)
		}
		for name, url := range map[string]string{"proxying router": proxy.URL, "embedded router": embedded.URL} {
			if status, resp := post(url+"/run", []byte(body)); status != wantStatus || resp.Result != wantResp.Result {
				t.Errorf("body %.40q…: %s answered %d %q, backend %d %q", body, name, status, resp.Result, wantStatus, wantResp.Result)
			}
		}
	}
}

// BenchmarkDecodeRequest is the decode layer alone on the vec_sweep
// body: DecodeRequest against the encoding/json call it replaced.
func BenchmarkDecodeRequest(b *testing.B) {
	body := vecForceBody(b)
	for _, bc := range []struct {
		name   string
		decode func([]byte) (Request, error)
	}{{"fast", DecodeRequest}, {"encoding-json", decodeJSON}} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bc.decode(body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// costGates opts in to the package's one wall-clock assertion, the way
// the root package's speedup floors do; CI's cost-gate step passes
// -cost-gates.
var costGates = flag.Bool("cost-gates", false, "also assert DecodeRequest's speedup over encoding/json (timing gate; CI's cost-gate step)")

// TestDecodeSpeedupFloor: on the vec_sweep body the single pass is at
// least 3× faster than encoding/json (measured ≈ 5×). A ratio of two
// timings taken interleaved on one machine; best of 3 per side, up to 3
// attempts.
func TestDecodeSpeedupFloor(t *testing.T) {
	if !*costGates {
		t.Skip("wall-clock gate: run with -cost-gates")
	}
	body := vecForceBody(t)
	best := func(decode func([]byte) (Request, error)) time.Duration {
		var b time.Duration
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			for k := 0; k < 200; k++ {
				if _, err := decode(body); err != nil {
					t.Fatal(err)
				}
			}
			if d := time.Since(t0); b == 0 || d < b {
				b = d
			}
		}
		return b
	}
	const floor = 3.0
	var ratio float64
	for attempt := 0; attempt < 3; attempt++ {
		slow, fast := best(decodeJSON), best(DecodeRequest)
		ratio = float64(slow) / float64(fast)
		t.Logf("attempt %d: encoding/json %v, DecodeRequest %v per 200, ratio %.2f (floor %.1f)", attempt+1, slow, fast, ratio, floor)
		if ratio >= floor {
			return
		}
	}
	t.Errorf("DecodeRequest only %.2f× faster than encoding/json (floor %.1f)", ratio, floor)
}
