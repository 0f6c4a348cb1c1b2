package llmsim

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"time"
)

// The HTTP layer exposes the simulated service the way a real LLM web
// service is consumed — POST a query, receive a JSON response — so the
// examples and integration tests exercise a genuine network path, and so
// cache hits measurably avoid network round trips.

// QueryRequest is the JSON request body for POST /v1/query.
type QueryRequest struct {
	Query string `json:"query"`
}

// QueryResponse is the JSON response body.
type QueryResponse struct {
	Response string `json:"response"`
	// ModelMicros is the simulated inference time in microseconds.
	ModelMicros int64 `json:"model_micros"`
}

// Server wraps a Service in an HTTP endpoint.
type Server struct {
	svc  *Service
	http *http.Server
	ln   net.Listener
}

// Serve starts an HTTP server for svc on addr (e.g. "127.0.0.1:0").
// It returns once the listener is bound; use Addr for the chosen address.
func Serve(svc *Service, addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("llmsim: listening on %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/query", func(w http.ResponseWriter, r *http.Request) {
		var req QueryRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
			return
		}
		resp, took, err := svc.QueryContext(r.Context(), req.Query)
		if err != nil {
			// Induced failures and abandoned inferences surface as 503 so
			// remote callers' breakers see the outage too.
			http.Error(w, "upstream unavailable: "+err.Error(), http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(QueryResponse{
			Response:    resp,
			ModelMicros: took.Microseconds(),
		})
	})
	s := &Server{
		svc:  svc,
		http: &http.Server{Handler: mux},
		ln:   ln,
	}
	go s.http.Serve(ln)
	return s, nil
}

// Addr reports the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the server down.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	return s.http.Shutdown(ctx)
}

// Client queries a remote simulated LLM service over HTTP. It implements
// the same QueryContext contract as Service (core.LLM), so MeanCache can
// front either.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient builds a client for the service at addr (host:port).
func NewClient(addr string) *Client {
	return &Client{
		base: "http://" + addr,
		hc:   &http.Client{Timeout: 30 * time.Second},
	}
}

// QueryContext sends q to the remote service under ctx's deadline. took
// includes the network round trip, which is the point: server-side caches
// still pay this cost on every query, user-side caches do not (§I,
// problem 2). Transport and server failures surface as errors, so the
// caller's circuit breaker and concurrency limiter see the upstream's
// true health.
func (c *Client) QueryContext(ctx context.Context, q string) (response string, took time.Duration, err error) {
	start := time.Now()
	body, err := json.Marshal(QueryRequest{Query: q})
	if err != nil {
		return "", time.Since(start), fmt.Errorf("llmsim: encoding request: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/query", bytes.NewReader(body))
	if err != nil {
		return "", time.Since(start), fmt.Errorf("llmsim: building request: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		// Unwrap to the context error when the deadline or the caller
		// killed the request: errors.Is(err, context.DeadlineExceeded)
		// must hold for the guard's timeout classification.
		if ctxErr := ctx.Err(); ctxErr != nil {
			return "", time.Since(start), fmt.Errorf("llmsim: query: %w", ctxErr)
		}
		return "", time.Since(start), fmt.Errorf("llmsim: query: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", time.Since(start), fmt.Errorf("llmsim: upstream returned %s", resp.Status)
	}
	var qr QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		return "", time.Since(start), fmt.Errorf("llmsim: decoding response: %w", err)
	}
	// In virtual-time mode the server does not sleep; fold its simulated
	// inference time into the reported latency.
	return qr.Response, time.Since(start) + time.Duration(qr.ModelMicros)*time.Microsecond, nil
}
