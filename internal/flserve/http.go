package flserve

import (
	"encoding/json"
	"net/http"

	"repro/internal/server"
)

// Status is the body of GET /v1/fl/status.
type Status struct {
	// Round is the next round number (i.e. rounds completed so far when
	// counting from 0).
	Round int `json:"round"`
	// Tau is the current global threshold.
	Tau float64 `json:"tau"`
	// Current is the latest committed model version (nil before the
	// first round).
	Current *ModelRecord `json:"current_model,omitempty"`
	// Versions lists recent versions, newest first.
	Versions []ModelRecord `json:"versions,omitempty"`
	// History lists recent round reports, oldest first.
	History []RoundReport `json:"history,omitempty"`
	// Eligible is how many tenants currently qualify for sampling.
	Eligible  int            `json:"eligible_tenants"`
	Collector CollectorStats `json:"collector"`
	Rollouts  RolloutStats   `json:"rollouts"`
}

// Register mounts the coordinator's endpoints on the serving process:
//
//	POST /v1/fl/round   run one round now; returns the RoundReport
//	GET  /v1/fl/status  rounds, versions, collector + rollout counters
//	GET  /v1/model      latest (or ?version=) model metadata;
//	                    ?weights=1 streams the encoder's model file
//	                    (embed.Save's checksummed weight blocks;
//	                    embed.Load reads it back)
func (s *Service) Register(srv *server.Server) {
	srv.Handle("POST /v1/fl/round", http.HandlerFunc(s.handleRound))
	srv.Handle("GET /v1/fl/status", http.HandlerFunc(s.handleStatus))
	srv.Handle("GET /v1/model", http.HandlerFunc(s.handleModel))
}

func (s *Service) handleRound(w http.ResponseWriter, _ *http.Request) {
	rep, err := s.RunRound()
	w.Header().Set("Content-Type", "application/json")
	if err != nil {
		w.WriteHeader(http.StatusConflict)
	}
	json.NewEncoder(w).Encode(rep)
}

func (s *Service) handleStatus(w http.ResponseWriter, _ *http.Request) {
	s.stateMu.Lock()
	st := Status{
		Round:   s.round,
		History: append([]RoundReport(nil), s.history...),
	}
	s.stateMu.Unlock()
	st.Tau = s.Tau()
	if rec, ok := s.models.Latest(); ok {
		st.Current = &rec
	}
	st.Versions = s.models.History(16)
	st.Eligible = len(s.cfg.Collector.Eligible(s.cfg.MinPairs))
	st.Collector = s.cfg.Collector.Stats()
	st.Rollouts = s.RolloutSnapshot()
	writeJSON(w, st)
}

func (s *Service) handleModel(w http.ResponseWriter, r *http.Request) {
	version := r.URL.Query().Get("version")
	if version == "" {
		rec, ok := s.models.Latest()
		if !ok {
			http.Error(w, "no model committed yet", http.StatusNotFound)
			return
		}
		version = rec.Version
	}
	rec, ok := s.models.Lookup(version)
	if !ok {
		http.Error(w, "unknown model version", http.StatusNotFound)
		return
	}
	if want := r.URL.Query().Get("weights"); want != "1" && want != "true" {
		writeJSON(w, rec)
		return
	}
	m, err := s.models.Model(version)
	if err != nil {
		http.Error(w, err.Error(), http.StatusGone)
		return
	}
	// embed.Load round-trips this stream.
	w.Header().Set("Content-Type", "application/octet-stream")
	if err := m.Save(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
