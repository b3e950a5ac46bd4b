// Package httpx is the HTTP plumbing the evald service (internal/httpapi)
// and the simd worker (internal/simpool) share: the JSON codec and its
// uniform {"error": …} body, API-key extraction, Retry-After rendering,
// the status-capturing writer, panic recovery, the method gate, and the
// drain — its gate and the serve-until-cancelled-then-Shutdown loop.
//
// It imports nothing from this module. What differs between the two
// servers (tenants and quotas, the worker's single key and slots, what
// each request log line carries) stays with the caller.
package httpx

import (
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"net"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// ErrorBody is the uniform error body of both servers.
type ErrorBody struct {
	Error string `json:"error"`
}

// WriteJSON answers status with v as a JSON body.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError answers status with an ErrorBody carrying msg.
func WriteError(w http.ResponseWriter, status int, msg string) {
	WriteJSON(w, status, ErrorBody{Error: msg})
}

// Decode parses a JSON body into dst with unknown fields and trailing
// data rejected and a 1 MiB cap, answering 400 (or 413) itself and
// returning false when the body is malformed.
func Decode(w http.ResponseWriter, r *http.Request, dst any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, 1<<20)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			WriteError(w, http.StatusRequestEntityTooLarge, "request body over 1 MiB")
			return false
		}
		WriteError(w, http.StatusBadRequest, "malformed JSON body: "+err.Error())
		return false
	}
	if dec.More() {
		WriteError(w, http.StatusBadRequest, "trailing data after JSON body")
		return false
	}
	return true
}

// APIKey returns the client credential (Authorization: Bearer or
// X-API-Key). When there is none it answers 401 with a Bearer challenge
// for realm and returns "".
func APIKey(w http.ResponseWriter, r *http.Request, realm string) string {
	var key string
	if auth := r.Header.Get("Authorization"); auth != "" {
		if rest, ok := strings.CutPrefix(auth, "Bearer "); ok {
			key = strings.TrimSpace(rest)
		}
	} else {
		key = strings.TrimSpace(r.Header.Get("X-API-Key"))
	}
	if key == "" {
		w.Header().Set("WWW-Authenticate", `Bearer realm="`+realm+`"`)
		WriteError(w, http.StatusUnauthorized, "missing API key")
	}
	return key
}

// RetryAfter renders a wait as a Retry-After header value: whole
// seconds, rounded up, never below 1 (a 503 with Retry-After: 0 invites
// an immediate retry storm).
func RetryAfter(d time.Duration) string {
	secs := (int64(d) + int64(time.Second) - 1) / int64(time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// StatusWriter records the status a handler answers with, for the
// request log.
type StatusWriter struct {
	http.ResponseWriter
	status int
}

// WriteHeader records the first status and forwards it; net/http
// ignores later ones.
func (w *StatusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

// Status returns the status answered: 200 when the handler never called
// WriteHeader, as net/http then sends on the first Write (or none).
func (w *StatusWriter) Status() int {
	if w.status == 0 {
		return http.StatusOK
	}
	return w.status
}

// Recover turns a handler panic into a 500 logged on logger, instead of
// tearing down the connection and leaving the client an aborted
// response.
func Recover(logger *slog.Logger, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				logger.Error("panic in handler",
					"path", r.URL.Path, "panic", rec, "stack", string(debug.Stack()))
				WriteError(w, http.StatusInternalServerError, "internal error")
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// AllowMethod rejects every verb but method with 405.
func AllowMethod(method string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != method {
			w.Header().Set("Allow", method)
			WriteError(w, http.StatusMethodNotAllowed, "method not allowed")
			return
		}
		next.ServeHTTP(w, r)
	})
}

// Drain is a server's one-way drain state. Its zero value is serving;
// Serve starts the drain when its context ends.
type Drain struct {
	// until is when the drain grace runs out (unix nanos); zero while
	// serving.
	until atomic.Int64
}

// Start begins draining with grace for in-flight work; only the first
// call counts. A grace of zero or less means none is known.
func (d *Drain) Start(grace time.Duration) {
	d.until.CompareAndSwap(0, time.Now().Add(grace).UnixNano())
}

// Draining reports whether the drain has begun.
func (d *Drain) Draining() bool { return d.until.Load() != 0 }

// Gate refuses new work once draining with 503 and a Retry-After of the
// grace remaining: when it elapses this instance is gone and a
// replacement should be answering, so it is the earliest moment a retry
// can do better. Requests already past the gate run to completion.
func (d *Drain) Gate(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if until := d.until.Load(); until != 0 {
			w.Header().Set("Retry-After", RetryAfter(time.Until(time.Unix(0, until))))
			WriteError(w, http.StatusServiceUnavailable, "server is draining")
			return
		}
		next.ServeHTTP(w, r)
	})
}

// Serve serves h on ln until ctx ends, then drains: Start(grace) flips
// the gate, and http.Server.Shutdown waits up to grace (without limit
// when grace is zero or less) for in-flight requests. It returns once
// they are done: nil on a clean drain, else the error that stopped the
// server.
func (d *Drain) Serve(ctx context.Context, ln net.Listener, h http.Handler, grace time.Duration) error {
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	drained := make(chan error, 1)
	go func() {
		<-ctx.Done()
		d.Start(grace)
		shCtx := context.Background()
		if grace > 0 {
			var cancel context.CancelFunc
			shCtx, cancel = context.WithTimeout(shCtx, grace)
			defer cancel()
		}
		drained <- hs.Shutdown(shCtx)
	}()
	err := hs.Serve(ln)
	if errors.Is(err, http.ErrServerClosed) {
		// Shutdown owns the outcome: wait for in-flight requests to
		// finish or the grace to cut them off.
		err = <-drained
	}
	return err
}
