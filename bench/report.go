package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// workloadResult is everything one workload produced.
type workloadResult struct {
	Name   string
	Rounds int
	// Measured requests of the untraced run.
	Sent, Succeeded int
	// Failed counts every request that failed or broke the output check:
	// measured, warm-up and traced.
	Failed                   int
	WarmSent, WarmFailed     int
	TracedSent, TracedFailed int
	EndToEnd                 []metric
	PerLayer                 []metric // nil when the run was untraced
}

func (r *workloadResult) print(w io.Writer) {
	fmt.Fprintf(w, "== %s: measured sent %d succeeded %d failed %d; warm-up sent %d failed %d\n",
		r.Name, r.Sent, r.Succeeded, r.Sent-r.Succeeded, r.WarmSent, r.WarmFailed)
	fmt.Fprintf(w, "end-to-end (untraced: %d round(s) against the cacheserve subprocess, %d closed-loop clients)\n", r.Rounds, numClients)
	printMetrics(w, r.EndToEnd)
	if r.PerLayer != nil {
		fmt.Fprintf(w, "per-layer (traced in-process replay of the first 1/%d: sent %d failed %d; client.* from the untraced run)\n",
			tracedShare, r.TracedSent, r.TracedFailed)
		printMetrics(w, r.PerLayer)
	}
}

func printMetrics(w io.Writer, ms []metric) {
	for _, m := range ms {
		fmt.Fprintf(w, "  %-34s %16.4f %-6s samples=%d\n", m.Name, m.Value, m.Unit, m.Samples)
	}
}

// jsonMetric is a metric's wire form.
type jsonMetric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

func metricMap(ms []metric, withSamples bool) map[string]jsonMetric {
	out := make(map[string]jsonMetric, len(ms))
	for _, m := range ms {
		jm := jsonMetric{Value: m.Value, Unit: m.Unit}
		if math.IsNaN(jm.Value) || math.IsInf(jm.Value, 0) {
			jm.Value = 0 // JSON has no NaN; an empty sample also fails the run
		}
		if withSamples {
			jm.Samples = m.Samples
		}
		out[m.Name] = jm
	}
	return out
}

// driverLine is the one-line result the benchmark driver reads.
func (r *workloadResult) driverLine(traced bool) string {
	ms := r.EndToEnd
	if traced {
		ms = r.PerLayer
	}
	line, _ := json.Marshal(struct { // plain numbers and strings cannot fail to encode
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.Failed == 0, r.Sent + r.WarmSent + r.TracedSent, r.Failed, metricMap(ms, false)})
	return string(line)
}

// report is the -out file.
type report struct {
	Seed      int64
	Seconds   int
	Env       envInfo
	Workloads []*workloadResult
}

func (rep *report) write(path string) error {
	type requests struct {
		Sent         int `json:"sent"`
		Succeeded    int `json:"succeeded"`
		Failed       int `json:"failed"`
		WarmupSent   int `json:"warmup_sent"`
		WarmupFailed int `json:"warmup_failed"`
		TracedSent   int `json:"traced_sent"`
		TracedFailed int `json:"traced_failed"`
	}
	type workloadJSON struct {
		Name     string                `json:"name"`
		Rounds   int                   `json:"rounds"`
		Requests requests              `json:"requests"`
		EndToEnd map[string]jsonMetric `json:"end_to_end"`
		PerLayer map[string]jsonMetric `json:"per_layer,omitempty"`
	}
	out := struct {
		Seed      int64          `json:"seed"`
		Seconds   int            `json:"seconds"`
		Clients   int            `json:"clients"`
		Env       envInfo        `json:"env"`
		Workloads []workloadJSON `json:"workloads"`
	}{Seed: rep.Seed, Seconds: rep.Seconds, Clients: numClients, Env: rep.Env}
	for _, r := range rep.Workloads {
		wj := workloadJSON{
			Name:   r.Name,
			Rounds: r.Rounds,
			Requests: requests{r.Sent, r.Succeeded, r.Sent - r.Succeeded, r.WarmSent, r.WarmFailed,
				r.TracedSent, r.TracedFailed},
			EndToEnd: metricMap(r.EndToEnd, true),
		}
		if r.PerLayer != nil {
			wj.PerLayer = metricMap(r.PerLayer, true)
		}
		out.Workloads = append(out.Workloads, wj)
	}
	raw, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
