package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"flashps/internal/obs"
)

func mathFloat32bits(v float32) uint32     { return math.Float32bits(v) }
func mathFloat32frombits(b uint32) float32 { return math.Float32frombits(b) }

// Handler returns the HTTP API (full wire schema in docs/API.md):
//
//	POST   /v1/templates          — prepare a template (idempotent on template_id)
//	GET    /v1/templates          — list cached templates; ?limit=&offset= paginate
//	DELETE /v1/templates/{id}     — invalidate host+disk cache entries (409 if pinned)
//	POST   /v1/templates/{id}/pin — pin a template against eviction (v1.1)
//	DELETE /v1/templates/{id}/pin — clear a pin (v1.1)
//	GET    /v1/cache/stats        — per-tier cache statistics (v1.1)
//	POST   /v1/edits              — serve an edit (EditRequestAPI → EditResponse)
//	GET    /v1/fleet              — fleet control-plane snapshot (FleetResponse)
//	GET    /v1/alerts             — SLO burn-rate alert states (AlertsResponse, v1.3)
//	GET    /v1/stats              — live statistics (Stats)
//	GET    /healthz               — readiness (Health JSON; 503 when not "ok")
//	GET    /metrics               — Prometheus text exposition from the registry
//	GET    /debug/traces          — span ring buffer as Chrome trace_event JSON;
//	                                ?trace_id= filters to one request's span tree (v1.3)
//	GET    /debug/flightrecorder  — on-demand flight-recorder snapshot (v1.3)
//
// Every error on a /v1/* route (including 405s) is a structured JSON
// envelope: {"error": {"code", "message", "retryable"}}.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", methods(map[string]http.HandlerFunc{
		http.MethodGet: func(w http.ResponseWriter, r *http.Request) {
			h := s.Health()
			w.Header().Set("Content-Type", "application/json")
			if h.Status != "ok" {
				w.WriteHeader(http.StatusServiceUnavailable)
			}
			_ = json.NewEncoder(w).Encode(h)
		},
	}))
	mux.HandleFunc("/v1/templates", methods(map[string]http.HandlerFunc{
		http.MethodPost: func(w http.ResponseWriter, r *http.Request) {
			var req PrepareRequest
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				writeError(w, apiErrorf(CodeInvalidRequest, false, "bad request body: %v", err))
				return
			}
			resp, err := s.Prepare(req)
			if err != nil {
				writeError(w, err)
				return
			}
			writeJSON(w, resp)
		},
		http.MethodGet: func(w http.ResponseWriter, r *http.Request) {
			limit, err := queryInt(r, "limit")
			if err != nil {
				writeError(w, err)
				return
			}
			offset, err := queryInt(r, "offset")
			if err != nil {
				writeError(w, err)
				return
			}
			list := s.ListTemplates()
			total := len(list)
			if offset >= len(list) {
				list = nil
			} else {
				list = list[offset:]
			}
			if limit > 0 && limit < len(list) {
				list = list[:limit]
			}
			if list == nil {
				list = []TemplateInfo{}
			}
			writeJSON(w, TemplateListResponse{
				Templates: list, Total: total, Limit: limit, Offset: offset,
			})
		},
	}))
	mux.HandleFunc("/v1/templates/", func(w http.ResponseWriter, r *http.Request) {
		raw := strings.TrimPrefix(r.URL.Path, "/v1/templates/")
		raw, isPin := strings.CutSuffix(raw, "/pin")
		id, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			writeError(w, apiErrorf(CodeInvalidRequest, false, "bad template id %q", raw))
			return
		}
		if isPin {
			methods(map[string]http.HandlerFunc{
				http.MethodPost: func(w http.ResponseWriter, r *http.Request) {
					if err := s.PinTemplate(id); err != nil {
						writeError(w, err)
						return
					}
					writeJSON(w, PinResponse{TemplateID: id, Pinned: true})
				},
				http.MethodDelete: func(w http.ResponseWriter, r *http.Request) {
					if err := s.UnpinTemplate(id); err != nil {
						writeError(w, err)
						return
					}
					writeJSON(w, PinResponse{TemplateID: id, Pinned: false})
				},
			})(w, r)
			return
		}
		methods(map[string]http.HandlerFunc{
			http.MethodDelete: func(w http.ResponseWriter, r *http.Request) {
				if err := s.DeleteTemplate(id); err != nil {
					writeError(w, err)
					return
				}
				writeJSON(w, DeleteTemplateResponse{TemplateID: id, Deleted: true})
			},
		})(w, r)
	})
	mux.HandleFunc("/v1/cache/stats", methods(map[string]http.HandlerFunc{
		http.MethodGet: func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, s.CacheStats())
		},
	}))
	mux.HandleFunc("/v1/edits", methods(map[string]http.HandlerFunc{
		http.MethodPost: func(w http.ResponseWriter, r *http.Request) {
			var req EditRequestAPI
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				writeError(w, apiErrorf(CodeInvalidRequest, false, "bad request body: %v", err))
				return
			}
			resp, err := s.SubmitEdit(r.Context(), req)
			if err != nil {
				writeError(w, err)
				return
			}
			writeJSON(w, resp)
		},
	}))
	mux.HandleFunc("/v1/fleet", methods(map[string]http.HandlerFunc{
		http.MethodGet: func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, s.Fleet())
		},
	}))
	mux.HandleFunc("/v1/stats", methods(map[string]http.HandlerFunc{
		http.MethodGet: func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, s.Snapshot())
		},
	}))
	mux.HandleFunc("/metrics", methods(map[string]http.HandlerFunc{
		http.MethodGet: func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", obs.PrometheusContentType)
			if err := s.obs.reg.WritePrometheus(w); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		},
	}))
	mux.HandleFunc("/v1/alerts", methods(map[string]http.HandlerFunc{
		http.MethodGet: func(w http.ResponseWriter, r *http.Request) {
			alerts := s.obs.plane.Alerts()
			writeJSON(w, AlertsResponse{
				Worst: s.obs.plane.AlertMax().String(), Alerts: alerts,
			})
		},
	}))
	mux.HandleFunc("/debug/traces", methods(map[string]http.HandlerFunc{
		http.MethodGet: func(w http.ResponseWriter, r *http.Request) {
			var trace uint64
			if raw := r.URL.Query().Get("trace_id"); raw != "" {
				var err error
				if trace, err = obs.ParseTraceID(raw); err != nil {
					writeError(w, apiErrorf(CodeInvalidRequest, false, "%v", err))
					return
				}
			}
			w.Header().Set("Content-Type", "application/json")
			if err := s.obs.tracer.WriteChromeJSONTrace(w, trace); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		},
	}))
	mux.HandleFunc("/debug/flightrecorder", methods(map[string]http.HandlerFunc{
		http.MethodGet: func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			if err := s.obs.plane.FlightSnapshot("debug").WriteJSON(w); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		},
	}))
	return mux
}

// methods dispatches on the request method and rejects everything else
// with a 405 carrying the structured error envelope, advertising the
// allowed methods per RFC 9110.
func methods(h map[string]http.HandlerFunc) http.HandlerFunc {
	allowed := make([]string, 0, len(h))
	for m := range h {
		allowed = append(allowed, m)
	}
	sort.Strings(allowed)
	allow := strings.Join(allowed, ", ")
	return func(w http.ResponseWriter, r *http.Request) {
		if fn, ok := h[r.Method]; ok {
			fn(w, r)
			return
		}
		w.Header().Set("Allow", allow)
		writeErrorStatus(w, http.StatusMethodNotAllowed,
			apiErrorf(CodeInvalidRequest, false, "method %s not allowed (allow: %s)", r.Method, allow))
	}
}

// writeError writes err as the structured envelope with its mapped status.
func writeError(w http.ResponseWriter, err error) {
	ae := asAPIError(err)
	writeErrorStatus(w, ae.HTTPStatus(), ae)
}

func writeErrorStatus(w http.ResponseWriter, status int, ae *APIError) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(ErrorEnvelope{Error: ae})
}

// queryInt parses a non-negative integer query parameter (absent = 0).
func queryInt(r *http.Request, key string) (int, error) {
	raw := r.URL.Query().Get(key)
	if raw == "" {
		return 0, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil || v < 0 {
		return 0, apiErrorf(CodeInvalidRequest, false, "bad %s %q: want a non-negative integer", key, raw)
	}
	return v, nil
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		writeError(w, apiErrorf(CodeInternal, false, "encode response: %v", err))
	}
}
