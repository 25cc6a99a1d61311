package metrics

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// histogram reads the named histogram back from the registry's JSON.
func histogram(t *testing.T, r *Registry, name string) jsonHistogram {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var out jsonRegistry
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	for _, h := range out.Histograms {
		if h.Name == name {
			return h
		}
	}
	t.Fatalf("no histogram %q in\n%s", name, buf.String())
	return jsonHistogram{}
}

func TestCounter(t *testing.T) {
	r := New()
	r.Counter("messages").Add(3)
	r.Counter("messages").Add(4)
	if got := r.Counter("messages").N; got != 7 {
		t.Fatalf("counter = %d, want 7", got)
	}
	if got := r.Counter("untouched").N; got != 0 {
		t.Fatalf("fresh counter = %d, want 0", got)
	}
}

func TestExpBounds(t *testing.T) {
	got := ExpBounds(8, 2, 4)
	want := []int64{8, 16, 32, 64}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExpBounds = %v, want %v", got, want)
		}
	}
}

func TestHistogramObserve(t *testing.T) {
	r := New()
	obs := r.Histogram("size", "bytes", []int64{10, 100, 1000})
	for _, v := range []int64{5, 10, 11, 100, 5000} {
		obs.Observe(v)
	}
	h := histogram(t, r, "size")
	if h.Count != 5 || h.Sum != 5126 || h.Min != 5 || h.Max != 5000 {
		t.Fatalf("count=%d sum=%d min=%d max=%d", h.Count, h.Sum, h.Min, h.Max)
	}
	// Bounds are inclusive: 10 lands in bucket 0, 100 in bucket 1,
	// 5000 overflows.
	wantBuckets := []int64{2, 2, 0, 1}
	if len(h.Buckets) != len(wantBuckets) {
		t.Fatalf("buckets = %+v, want %d", h.Buckets, len(wantBuckets))
	}
	for i, want := range wantBuckets {
		if got := h.Buckets[i].Count; got != want {
			t.Fatalf("bucket %d = %d, want %d (all %v)", i, got, want, wantBuckets)
		}
	}
}

func TestHistogramBadBoundsPanics(t *testing.T) {
	for name, bounds := range map[string][]int64{
		"empty":      {},
		"descending": {10, 5},
		"duplicate":  {10, 10},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("bounds %v accepted", bounds)
				}
			}()
			New().Histogram("h", "u", bounds)
		})
	}
}

func TestText(t *testing.T) {
	r := New()
	r.Counter("bytes_sent").Add(2048)
	r.Counter("messages").Add(16)
	h := r.Histogram("message_size_bytes", "bytes", []int64{64, 128})
	h.Observe(64)
	h.Observe(4096)
	var buf bytes.Buffer
	r.Text(&buf)
	out := buf.String()
	// Counters come first, sorted by name, aligned.
	if !strings.Contains(out, "counter  bytes_sent  2048") {
		t.Errorf("missing aligned counter line:\n%s", out)
	}
	if strings.Index(out, "bytes_sent") > strings.Index(out, "messages") {
		t.Errorf("counters not name-sorted:\n%s", out)
	}
	for _, want := range []string{
		"hist     message_size_bytes (bytes): count 2, sum 4160, min 64, max 4096",
		"<= 64",
		">  128",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "<= 128") {
		t.Errorf("empty bucket rendered:\n%s", out)
	}
}

func TestWriteJSON(t *testing.T) {
	r := New()
	r.Counter("messages").Add(16)
	r.Histogram("size", "bytes", []int64{10}).Observe(5)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got struct {
		Counters []struct {
			Name  string `json:"name"`
			Value int64  `json:"value"`
		} `json:"counters"`
		Histograms []struct {
			Name    string `json:"name"`
			Count   int64  `json:"count"`
			Buckets []struct {
				Le    string `json:"le"`
				Count int64  `json:"count"`
			} `json:"buckets"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(got.Counters) != 1 || got.Counters[0].Name != "messages" || got.Counters[0].Value != 16 {
		t.Fatalf("counters = %+v", got.Counters)
	}
	h := got.Histograms[0]
	if h.Name != "size" || h.Count != 1 || len(h.Buckets) != 2 || h.Buckets[1].Le != "+inf" {
		t.Fatalf("histogram = %+v", h)
	}
	// Same registry renders byte-identically.
	var again bytes.Buffer
	if err := r.WriteJSON(&again); err != nil {
		t.Fatal(err)
	}
	if again.String() != buf.String() {
		t.Fatal("two renderings differ")
	}
}
