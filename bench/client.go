package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/llmsim"
	"repro/internal/server"
)

// reqIDHeader carries the benchmark's request id to the traced stack's
// handler middleware. It is sent on untraced runs too, so the two runs
// put the same bytes on the wire.
const reqIDHeader = "X-Bench-Req"

// reply is what one request came back with.
type reply struct {
	Hit      bool
	Matched  string
	Response string
	RTT      time.Duration
	Err      error // transport failure, non-200 status, or a failed output check
}

// drive sends lists[i] over its own keep-alive connection, one request at
// a time (a closed loop per connection), and returns the replies in list
// order. Request ids are idBase + the request's position in the
// concatenation of the lists. A non-nil tracer brackets every request of
// a traced replay: it is told, on the client goroutine, before the
// request is written and after the reply is read.
func drive(addr string, lists [][]request, idBase int, tr *tracer) [][]reply {
	out := make([][]reply, len(lists))
	var wg sync.WaitGroup
	for i := range lists {
		out[i] = make([]reply, len(lists[i]))
		wg.Add(1)
		go func(list []request, replies []reply, id int) {
			defer wg.Done()
			driveOne(addr, list, replies, id, tr)
		}(lists[i], out[i], idBase)
		idBase += len(lists[i])
	}
	wg.Wait()
	return out
}

func driveOne(addr string, list []request, replies []reply, idBase int, tr *tracer) {
	transport := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport, Timeout: 60 * time.Second}
	url := "http://" + addr + "/v1/query"
	var body, in bytes.Buffer
	enc := json.NewEncoder(&body)
	type sessionKey struct {
		user    int
		session string
	}
	var sessions map[sessionKey][]string // traced replays only
	if tr != nil {
		sessions = make(map[sessionKey][]string)
	}
	for i := range list {
		req, rep, id := &list[i], &replies[i], idBase+i
		var history []string
		if tr != nil && req.Session != "" {
			key := sessionKey{req.User, req.Session}
			history = sessions[key]
			sessions[key] = append(history[:len(history):len(history)], req.Query)
		}
		body.Reset()
		// Encoding three strings into a buffer cannot fail.
		_ = enc.Encode(server.QueryRequest{User: userID(req.User), Query: req.Query, Session: req.Session})
		hreq, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body.Bytes()))
		if err != nil {
			rep.Err = err
			continue
		}
		hreq.Header.Set("Content-Type", "application/json")
		hreq.Header.Set(reqIDHeader, strconv.Itoa(id))
		if tr != nil {
			tr.before(id, req, history)
		}
		start := time.Now()
		resp, err := client.Do(hreq)
		if err == nil {
			in.Reset()
			_, err = in.ReadFrom(resp.Body)
			resp.Body.Close()
		}
		rep.RTT = time.Since(start)
		if tr != nil {
			tr.after(id, req, history)
		}
		if err != nil {
			rep.Err = err
			continue
		}
		if resp.StatusCode != http.StatusOK {
			rep.Err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(in.Bytes()))
			continue
		}
		var qr server.QueryResponse
		if err := json.Unmarshal(in.Bytes(), &qr); err != nil {
			rep.Err = fmt.Errorf("decoding reply: %w", err)
			continue
		}
		rep.Hit, rep.Matched, rep.Response = qr.Hit, qr.Matched, qr.Response
	}
}

// checker verifies replies against what the system promises: tenant
// isolation (a hit cites a query this same user sent earlier) and
// response integrity (the text is the upstream's deterministic answer to
// the query that produced it).
type checker struct {
	llm  *llmsim.Service
	sent map[int]map[string]struct{} // user → queries sent so far
	// violations holds the first few failures in full, for the report.
	violations []string
	failed     int
}

func newChecker() *checker {
	return &checker{llm: llmsim.New(llmsim.DefaultConfig()), sent: make(map[int]map[string]struct{})}
}

// check verifies one client's replies in send order and marks each
// violating reply failed. Each user's requests all travel on one client,
// so checking client by client sees every user's requests in order.
func (c *checker) check(list []request, replies []reply) {
	for i := range list {
		req, rep := &list[i], &replies[i]
		sent := c.sent[req.User]
		if sent == nil {
			sent = make(map[string]struct{})
			c.sent[req.User] = sent
		}
		if rep.Err == nil {
			rep.Err = c.verify(req, rep, sent)
		}
		if rep.Err != nil {
			c.failed++
			if len(c.violations) < 5 {
				c.violations = append(c.violations,
					fmt.Sprintf("user %s query %q: %v", userID(req.User), req.Query, rep.Err))
			}
		}
		sent[req.Query] = struct{}{}
	}
}

func (c *checker) verify(req *request, rep *reply, sent map[string]struct{}) error {
	source := req.Query
	if rep.Hit {
		if _, ok := sent[rep.Matched]; !ok {
			return fmt.Errorf("hit matched %q, which this user never sent (tenant isolation)", rep.Matched)
		}
		source = rep.Matched
	} else if rep.Matched != "" {
		return fmt.Errorf("miss carries matched %q", rep.Matched)
	}
	if want, _ := c.llm.Query(source); rep.Response != want {
		return fmt.Errorf("response is not the upstream's answer to %q", source)
	}
	return nil
}
