package obs

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "ops", Label{"kind", "a"})
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Re-registering the same series returns the same handle.
	if again := r.Counter("test_ops_total", "ops", Label{"kind", "a"}); again != c {
		t.Fatalf("re-registration returned a new counter")
	}
	g := r.Gauge("test_depth", "depth")
	g.Set(3.5)
	g.Add(-1)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_lat_seconds", "latency", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-5.605) > 1e-9 {
		t.Fatalf("sum = %v, want 5.605", h.Sum())
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`test_lat_seconds_bucket{le="0.01"} 1`,
		`test_lat_seconds_bucket{le="0.1"} 3`,
		`test_lat_seconds_bucket{le="1"} 4`,
		`test_lat_seconds_bucket{le="+Inf"} 5`,
		`test_lat_seconds_count 5`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestExpositionParsesAndLints(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_reqs_total", "requests served", Label{"result", "hit"}).Add(7)
	r.Counter("x_reqs_total", "requests served", Label{"result", "miss"}).Add(3)
	r.Gauge("x_depth", "queue depth").Set(4)
	r.GaugeFunc("x_live", "live objects", func() float64 { return 12 })
	r.CounterFunc("x_forwards_total", "forwards", func() float64 { return 9 })
	h := r.Histogram("x_lat_seconds", "latency", DefLatencyBounds, Label{"tier", "flat"})
	h.ObserveDuration(150 * time.Microsecond)
	h.ObserveDuration(40 * time.Millisecond)
	r.Histogram("x_lat_seconds", "latency", DefLatencyBounds, Label{"tier", "ivf"}).Observe(0.3)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	exp, err := ParseExposition(buf.Bytes())
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, buf.String())
	}
	if v, ok := exp.Value("x_reqs_total", map[string]string{"result": "hit"}); !ok || v != 7 {
		t.Fatalf("x_reqs_total{result=hit} = %v, %v", v, ok)
	}
	if v, ok := exp.Value("x_live", nil); !ok || v != 12 {
		t.Fatalf("x_live = %v, %v", v, ok)
	}
	if v, ok := exp.Value("x_lat_seconds_count", map[string]string{"tier": "flat"}); !ok || v != 2 {
		t.Fatalf("x_lat_seconds_count{tier=flat} = %v, %v", v, ok)
	}
	if fam := exp.Families["x_lat_seconds"]; fam == nil || fam.Type != "histogram" {
		t.Fatalf("histogram family missing or mistyped: %+v", exp.Families["x_lat_seconds"])
	}
}

func TestParserRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"no TYPE":          "foo 1\n",
		"bad value":        "# TYPE foo counter\nfoo x\n",
		"dup series":       "# TYPE foo counter\nfoo 1\nfoo 2\n",
		"bad label":        "# TYPE foo counter\nfoo{1bad=\"x\"} 1\n",
		"unterminated":     "# TYPE foo counter\nfoo{a=\"x} 1\n",
		"bad type":         "# TYPE foo banana\nfoo 1\n",
		"histogram no inf": "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
		"histogram cum":    "# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n",
	}
	for name, text := range cases {
		if _, err := ParseExposition([]byte(text)); err == nil {
			t.Errorf("%s: parser accepted %q", name, text)
		}
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "escapes", Label{"v", "a\"b\\c\nd"}).Inc()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	exp, err := ParseExposition(buf.Bytes())
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, buf.String())
	}
	if v, ok := exp.Value("esc_total", map[string]string{"v": "a\"b\\c\nd"}); !ok || v != 1 {
		t.Fatalf("escaped label round-trip failed: %v %v\n%s", v, ok, buf.String())
	}
}

func TestRegistryConcurrentUse(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("conc_total", "c")
	h := r.Histogram("conc_seconds", "h", DefLatencyBounds)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(float64(i%100) / 1e4)
				if i%100 == 0 {
					var buf bytes.Buffer
					if err := r.WritePrometheus(&buf); err != nil {
						t.Error(err)
						return
					}
					if _, err := ParseExposition(buf.Bytes()); err != nil {
						t.Errorf("mid-flight exposition invalid: %v", err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
	if h.Count() != 8000 {
		t.Fatalf("histogram count = %d, want 8000", h.Count())
	}
}

func TestHistogramObserveAllocFree(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("alloc_seconds", "h", DefLatencyBounds)
	c := r.Counter("alloc_total", "c")
	n := testing.AllocsPerRun(1000, func() {
		h.Observe(0.001)
		c.Inc()
	})
	if n != 0 {
		t.Fatalf("metric updates allocated %v per op, want 0", n)
	}
}
