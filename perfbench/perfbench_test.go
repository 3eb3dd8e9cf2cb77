package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false},
		{19, 0, false},
		{20, 50, true},
		{40, 75, true},
		{100, 90, true},
		{199, 90, true},
		{200, 95, true},
		{999, 95, true},
		{1000, 99, true},
		{10000, 99.9, true},
		{100000, 99.99, true},
	} {
		got, ok := tailPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
		if ok && tc.n-rank(tc.n, got) < minBeyond {
			t.Errorf("tailPercentile(%d) = p%v leaves %d samples beyond it", tc.n, got, tc.n-rank(tc.n, got))
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := func() []float64 {
		var v []float64
		for i := 100; i >= 1; i-- {
			v = append(v, float64(i))
		}
		return v
	}
	if got := percentile(xs(), 99); got != 99 {
		t.Errorf("p99 of 1..100 = %v, want 99", got)
	}
	if got := percentile(xs(), 100); got != 100 {
		t.Errorf("p100 of 1..100 = %v, want 100", got)
	}
	if got := median(xs()); got != 50.5 {
		t.Errorf("median of 1..100 = %v, want 50.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3,1,2 = %v, want 2", got)
	}
	if median(nil) != 0 || percentile(nil, 50) != 0 {
		t.Error("statistics of no samples should be 0")
	}
}

// TestFailureAccounting checks that every way a request can fail is
// counted and makes the run incorrect: non-2xx, an NDJSON error event,
// a stream without a result and a transport error; and that good
// responses are not.
func TestFailureAccounting(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/ok", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"elapsed_ms": 1.5}`)
	})
	mux.HandleFunc("/shed", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTooManyRequests)
		io.WriteString(w, `{"error": "server overloaded"}`)
	})
	mux.HandleFunc("/stream", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"event":"progress","layer":"a","layer_done":true}`+"\n")
		switch r.URL.Query().Get("case") {
		case "ok":
			io.WriteString(w, `{"event":"future-event"}`+"\n")
			io.WriteString(w, `{"event":"result","layer_result":{"elapsed_ms":2}}`+"\n")
		case "error":
			io.WriteString(w, `{"event":"error","error":"search timed out","status":504}`+"\n")
		}
	})
	mux.HandleFunc("/hangup", func(w http.ResponseWriter, r *http.Request) {
		c, _, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		c.Close()
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	c := newConn(srv.URL, nil)
	defer c.close()

	for _, tc := range []struct {
		path    string
		stream  bool
		wantErr string
	}{
		{"/ok", false, ""},
		{"/shed", false, "HTTP 429: server overloaded"},
		{"/stream?case=ok", true, ""},
		{"/stream?case=error", true, "stream error event 504: search timed out"},
		{"/stream?case=none", true, "stream ended without a result event"},
		{"/hangup", false, "transport:"},
	} {
		b := &bench{}
		var rep reply
		if tc.stream {
			rep = streamPost(t, c, tc.path)
		} else {
			rep = c.post(tc.path, nil, false)
		}
		ok := b.count(call{key: tc.path}, rep)
		if tc.wantErr == "" {
			if !ok || b.failed != 0 || !b.correct() {
				t.Errorf("%s: counted as failed: %v", tc.path, rep.err)
			}
			continue
		}
		if ok || b.attempted != 1 || b.failed != 1 {
			t.Errorf("%s: attempted %d failed %d ok %v, want one failure", tc.path, b.attempted, b.failed, ok)
		}
		if b.correct() {
			t.Errorf("%s: one failed request left the run correct", tc.path)
		}
		if rep.err == nil || !strings.Contains(rep.err.Error(), tc.wantErr) {
			t.Errorf("%s: error %v, want it to contain %q", tc.path, rep.err, tc.wantErr)
		}
	}
	b := &bench{}
	b.mismatch("a wrong total")
	if b.correct() {
		t.Error("a failed output check left the run correct")
	}
}

// streamPost is conn.post with a query string of the test's own in
// place of ?stream=1.
func streamPost(t *testing.T, c *conn, pathQuery string) reply {
	t.Helper()
	resp, err := c.hc.Post(c.base+pathQuery, "application/json", nil)
	if err != nil {
		return reply{err: fmt.Errorf("transport: %w", err)}
	}
	defer resp.Body.Close()
	return readReply(resp, true, time.Now(), &c.buf)
}

func TestSameIgnoringElapsed(t *testing.T) {
	a := []byte("{\n  \"layer\": \"x\",\n  \"elapsed_ms\": 0.0123\n}\n")
	b := []byte("{\n  \"layer\": \"x\",\n  \"elapsed_ms\": 12.5\n}\n")
	c := []byte("{\n  \"layer\": \"y\",\n  \"elapsed_ms\": 0.0123\n}\n")
	if !sameIgnoringElapsed(a, b) {
		t.Error("responses differing only in elapsed_ms compare unequal")
	}
	if sameIgnoringElapsed(a, c) {
		t.Error("responses differing in a field compare equal")
	}
	if got := elapsedMS(b); got != 12.5 {
		t.Errorf("elapsedMS = %v, want 12.5", got)
	}
	if got := elapsedMS([]byte(`{"event":"result","network_result":{"ooo_cycles":3,"elapsed_ms":7e-3}}`)); got != 0.007 {
		t.Errorf("elapsedMS of a compact stream line = %v, want 0.007", got)
	}
}

func TestGeneratedInputsFollowTheSeed(t *testing.T) {
	gen := func(w string, seed int64) []byte {
		b, err := generatedInputs(w, seed)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, w := range []string{wSweepCold, wSweepFused, wServeHot} {
		if !bytes.Equal(gen(w, 42), gen(w, 42)) {
			t.Errorf("%s: the same seed generated different inputs", w)
		}
	}
	if !bytes.Equal(gen(wSweepCold, 1), gen(wSweepCold, 2)) {
		t.Errorf("%s has no seeded input, yet its inputs changed with the seed", wSweepCold)
	}
	for _, w := range []string{wSweepFused, wServeHot} {
		for seed := int64(1); seed < 10; seed++ {
			if bytes.Equal(gen(w, seed), gen(w, seed+1)) {
				t.Errorf("%s: seeds %d and %d generated the same inputs", w, seed, seed+1)
			}
		}
	}
	if _, err := generatedInputs("nope", 1); err == nil {
		t.Error("an unknown workload generated inputs")
	}
}

func TestFaultPlansOmitDeratesAndValidate(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		for i, p := range faultPlans(seed) {
			if len(p.DMA) != 0 {
				t.Fatalf("seed %d %s: plan %s keeps a DMA derate", seed, fusedNets[i], p)
			}
			if err := p.Validate(archCores); err != nil {
				t.Fatalf("seed %d %s: plan %s: %v", seed, fusedNets[i], p, err)
			}
		}
	}
}

func TestHotMixCoversEveryKind(t *testing.T) {
	cat := hotCatalogue()
	seen := map[string]int{}
	for _, i := range hotMix(3, cat) {
		seen[cat[i].kind]++
	}
	for _, s := range mixShares {
		got := float64(seen[s.kind]) / mixLen * 100
		if got < float64(s.percent)-2 || got > float64(s.percent)+2 {
			t.Errorf("kind %s is %.1f%% of the mix, want about %d%%", s.kind, got, s.percent)
		}
	}
}

func TestCompareRefusesOtherHosts(t *testing.T) {
	a := record{Host: currentHost(), Workload: wServeHot}
	b := a
	b.Host.NumCPU++
	if err := compareRecords(io.Discard, a, b); err == nil || !strings.Contains(err.Error(), "num_cpu") {
		t.Errorf("compare across hosts: %v, want a num_cpu refusal", err)
	}
	b = a
	b.Host.Rev = "other"
	if err := compareRecords(io.Discard, a, b); err != nil {
		t.Errorf("compare across revisions of one host: %v", err)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics the
// program prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string }         `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var workloads []string
	for _, w := range spec.Workloads {
		workloads = append(workloads, w.Name)
	}
	if got, want := strings.Join(workloads, ","), strings.Join([]string{wSweepCold, wSweepFused, wServeHot}, ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, program %s", got, want)
	}
	check := func(kind string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: program has %d metrics, BENCHMARK.json %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s %d: program %s [%s], BENCHMARK.json %s [%s]", kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	var e2e []struct{ Name, Unit string }
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, struct{ Name, Unit string }{m.Name, m.Unit})
	}
	check("end_to_end", endToEnd, e2e)
	check("per_layer", perLayer, spec.PerLayer)
}

// generatedInputs serializes everything a workload sends for seed, so
// tests can check that inputs depend on the seed and on nothing else.
func generatedInputs(workload string, seed int64) ([]byte, error) {
	var buf bytes.Buffer
	switch workload {
	case wSweepCold:
		for _, c := range coldCalls() {
			fmt.Fprintf(&buf, "%s %s\n", c.path, c.body)
		}
	case wSweepFused:
		for _, c := range fusedCalls(seed) {
			fmt.Fprintf(&buf, "%s?stream=1 %s\n", c.path, c.body)
		}
	case wServeHot:
		cat := hotCatalogue()
		for _, c := range cat {
			fmt.Fprintf(&buf, "%s stream=%v %s\n", c.path, c.stream, c.body)
		}
		for _, i := range hotMix(seed, cat) {
			fmt.Fprintf(&buf, "%d\n", i)
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	return buf.Bytes(), nil
}

func TestQuietSeconds(t *testing.T) {
	for _, tc := range []struct {
		marks []float64
		want  []bool
	}{
		// Steal of at most 10 ms in a second always counts as quiet.
		{[]float64{0, 0, 0.01, 0.5, 0.5}, []bool{true, true, false, true}},
		// Under steal in every second, the seconds up to the median
		// second's steal count.
		{[]float64{0, 0.1, 0.3, 0.4, 1.0, 1.05}, []bool{true, false, true, false, true}},
		{[]float64{2, 2.5}, []bool{true}},
	} {
		got := quietSeconds(tc.marks)
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("quietSeconds(%v) = %v, want %v", tc.marks, got, tc.want)
		}
	}
}

func TestUnstolen(t *testing.T) {
	for _, tc := range []struct {
		d      time.Duration
		stolen float64
		want   time.Duration
	}{
		{10 * time.Second, 2, 8 * time.Second},
		{10 * time.Second, 0, 10 * time.Second},
		{10 * time.Second, -1, 10 * time.Second},
		{time.Second, 5, time.Second}, // more stolen than elapsed: a bad reading, left alone
	} {
		if got := unstolen(tc.d, tc.stolen); got != tc.want {
			t.Errorf("unstolen(%v, %v) = %v, want %v", tc.d, tc.stolen, got, tc.want)
		}
	}
}
