package serve

import (
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"messengers/internal/value"
)

// HTTP front end for the admission server. Three endpoints:
//
//	POST /v1/submit  — submit an MSL program (JSON body below)
//	GET  /v1/stats   — per-tenant admission statistics
//	GET  /healthz    — liveness probe (503 while draining)
//
// Submit body:
//
//	{"tenant": "acme", "name": "crawl", "source": "...MSL...",
//	 "bytecode": "<base64>", "node": "n0", "daemon": -1,
//	 "vars": {"depth": 3, "label": "x"}}
//
// Exactly one of source/bytecode is required. Vars values may be numbers,
// strings, or booleans. Responses carry the admission decision:
// 202 admitted/queued, 400 verify failure, 403 unknown tenant,
// 413 oversized program or body, 429 backpressure, 503 draining.

// maxSubmitBody is the most of a submit body the server reads. The tenant's
// MaxProgram is checked after the body has been decoded, so without this a
// client decides how much memory one request holds.
const maxSubmitBody = 1 << 20

type submitRequest struct {
	Tenant   string         `json:"tenant"`
	Name     string         `json:"name"`
	Source   string         `json:"source,omitempty"`
	Bytecode string         `json:"bytecode,omitempty"` // base64
	Node     string         `json:"node,omitempty"`
	Daemon   *int           `json:"daemon,omitempty"`
	Vars     map[string]any `json:"vars,omitempty"`
}

type submitResponse struct {
	Session uint64 `json:"session,omitempty"`
	Status  string `json:"status"` // "admitted" | "queued" | "rejected"
	Error   string `json:"error,omitempty"`
}

// Handler returns the HTTP front end for the server.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/submit", s.handleSubmit)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/healthz", s.handleHealth)
	return mux
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req submitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBody))
	dec.UseNumber()
	if err := dec.Decode(&req); err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, status, submitResponse{Status: "rejected", Error: "bad request: " + err.Error()})
		return
	}
	sub := Submission{
		Tenant: req.Tenant,
		Name:   req.Name,
		Source: req.Source,
		Node:   req.Node,
		Daemon: -1,
	}
	if req.Daemon != nil {
		sub.Daemon = *req.Daemon
	}
	if req.Bytecode != "" {
		bc, err := base64.StdEncoding.DecodeString(req.Bytecode)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, submitResponse{Status: "rejected", Error: "bad bytecode encoding: " + err.Error()})
			return
		}
		sub.Bytecode = bc
	}
	if len(req.Vars) > 0 {
		vars, err := decodeVars(req.Vars)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, submitResponse{Status: "rejected", Error: err.Error()})
			return
		}
		sub.Vars = vars
	}
	id, st, err := s.Submit(sub)
	if err != nil {
		status := http.StatusInternalServerError
		if rej, ok := err.(*Reject); ok {
			status = rej.HTTPStatus()
		}
		writeJSON(w, status, submitResponse{Status: "rejected", Error: err.Error()})
		return
	}
	resp := submitResponse{Session: id, Status: "admitted"}
	if st == StatusQueued {
		resp.Status = "queued"
	}
	writeJSON(w, http.StatusAccepted, resp)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Live    int           `json:"live"`
		Tenants []TenantStats `json:"tenants"`
	}{s.LiveSessions(), s.Stats()})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// decodeVars maps JSON values onto MSL values: numbers (integers stay
// integral), strings, and booleans.
func decodeVars(in map[string]any) (map[string]value.Value, error) {
	out := make(map[string]value.Value, len(in))
	for k, v := range in {
		switch t := v.(type) {
		case json.Number:
			if i, err := t.Int64(); err == nil {
				out[k] = value.Int(i)
				continue
			}
			f, err := t.Float64()
			if err != nil {
				return nil, fmt.Errorf("var %q: bad number %q", k, t.String())
			}
			out[k] = value.Num(f)
		case string:
			out[k] = value.Str(t)
		case bool:
			out[k] = value.Bool(t)
		default:
			return nil, fmt.Errorf("var %q: unsupported JSON type %T", k, v)
		}
	}
	return out, nil
}
