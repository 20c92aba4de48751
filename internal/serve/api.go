// Package serve is the multi-tenant execution service built on the
// llee Session API: a Server runs Sessions against one shared System,
// each run on the goroutine of the request that asked for it and at most
// Workers at once, admitting, metering (gas), rate-limiting, and
// shedding requests, and containing a run's panic to its own 500
// answer; a Client maps the HTTP wire protocol back into the llee error
// taxonomy so errors.Is(err, llee.ErrOutOfGas) holds on both sides of
// the network.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"llva/internal/llee"
)

// Wire error codes. Every non-2xx response carries an errorBody whose
// Code is one of these; Client maps them back to typed errors.
const (
	CodeBadRequest  = "bad_request"  // 400: malformed request
	CodeTooLarge    = "too_large"    // 413: request body over maxBodyBytes
	CodeBadModule   = "bad_module"   // 400: module failed to compile/verify
	CodeNotFound    = "not_found"    // 404: unknown module
	CodeOutOfGas    = "out_of_gas"   // 402: the run exhausted its gas budget
	CodeTrap        = "trap"         // 422: the program died on an unhandled trap
	CodeCanceled    = "canceled"     // 408: the run was canceled
	CodeShed        = "shed"         // 429: server saturated, request never started
	CodeRateLimited = "rate_limited" // 429: tenant over its request rate
	CodeGasBudget   = "gas_budget"   // 429: tenant exhausted its aggregate gas budget
	CodeDraining    = "draining"     // 503: server is draining for shutdown
	CodeInternal    = "internal"     // 500: unexpected server failure, a panicked run included
)

// Admission sentinels: the server-side reasons a request is refused
// before execution starts. RemoteError unwraps to these client-side.
var (
	ErrShed        = errors.New("serve: shed: server saturated")
	ErrRateLimited = errors.New("serve: tenant rate limit exceeded")
	ErrGasBudget   = errors.New("serve: tenant gas budget exhausted")
	ErrDraining    = errors.New("serve: server is draining")
)

// LoadRequest uploads a module. Source is LLVA assembly (Lang "llva")
// or the C subset (Lang "c", the default).
type LoadRequest struct {
	Name   string `json:"name"`
	Lang   string `json:"lang,omitempty"`
	Source string `json:"source"`
}

// LoadResponse identifies the registered module.
type LoadResponse struct {
	Name  string `json:"name"`
	Stamp string `json:"stamp"`
}

// RunRequest executes an entry of a loaded module. Gas is the per-run
// virtual-cycle budget (0: the server's default; capped at the server's
// maximum).
type RunRequest struct {
	Module string   `json:"module"`
	Entry  string   `json:"entry,omitempty"` // default "main"
	Args   []uint64 `json:"args,omitempty"`
	Gas    uint64   `json:"gas,omitempty"`
	Tenant string   `json:"tenant,omitempty"`
}

// RunResponse is a completed run. QueueNS/ExecNS split the server-side
// latency: time admitted and waiting for a slot vs time executing
// (session acquisition included), so clients can tell scheduling delay
// from run cost. Reused reports the run was served by a pooled, reset session.
type RunResponse struct {
	Value   uint64 `json:"value"`
	Output  string `json:"output"`
	Instrs  uint64 `json:"instrs"`
	Cycles  uint64 `json:"cycles"`
	WallNS  int64  `json:"wall_ns"`
	QueueNS int64  `json:"queue_ns"`
	ExecNS  int64  `json:"exec_ns"`
	Reused  bool   `json:"reused,omitempty"`
}

// errorBody is the wire form of every failure.
type errorBody struct {
	Code       string `json:"code"`
	Message    string `json:"message"`
	CyclesUsed uint64 `json:"cycles_used,omitempty"` // out_of_gas: exact cycles consumed
	GasBudget  uint64 `json:"gas_budget,omitempty"`  // out_of_gas: the budget the run carried
	RetryAfter int    `json:"retry_after,omitempty"` // shed/rate_limited: seconds
}

// RemoteError is a server-reported failure decoded by Client. Unwrap
// maps the wire code back into the llee/serve taxonomy, so
// errors.Is(err, llee.ErrOutOfGas) (and ErrShed, ErrRateLimited,
// llee.ErrCanceled, ...) work across the HTTP boundary.
type RemoteError struct {
	Status     int    // HTTP status
	Code       string // wire code (CodeOutOfGas, ...)
	Message    string
	CyclesUsed uint64
	GasBudget  uint64
	RetryAfter int // seconds, when the server asked to back off
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("serve: %s (%d): %s", e.Code, e.Status, e.Message)
}

func (e *RemoteError) Unwrap() error {
	switch e.Code {
	case CodeOutOfGas:
		return llee.ErrOutOfGas
	case CodeCanceled:
		return llee.ErrCanceled
	case CodeBadModule:
		return llee.ErrBadModule
	case CodeShed:
		return ErrShed
	case CodeRateLimited:
		return ErrRateLimited
	case CodeGasBudget:
		return ErrGasBudget
	case CodeDraining:
		return ErrDraining
	}
	return nil
}

// Client talks to a Server over HTTP.
type Client struct {
	Base string // e.g. "http://127.0.0.1:8080"
	HTTP *http.Client
}

// NewClient returns a client whose transport tolerates the many
// concurrent loopback connections a load generator opens.
func NewClient(base string) *Client {
	tr := &http.Transport{
		MaxIdleConns:        4096,
		MaxIdleConnsPerHost: 4096,
	}
	return &Client{Base: base, HTTP: &http.Client{Transport: tr}}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) post(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return decodeError(resp, data)
	}
	return json.Unmarshal(data, out)
}

func decodeError(resp *http.Response, data []byte) error {
	var wrap struct {
		Error errorBody `json:"error"`
	}
	re := &RemoteError{Status: resp.StatusCode, Code: CodeInternal, Message: string(data)}
	if err := json.Unmarshal(data, &wrap); err == nil && wrap.Error.Code != "" {
		re.Code = wrap.Error.Code
		re.Message = wrap.Error.Message
		re.CyclesUsed = wrap.Error.CyclesUsed
		re.GasBudget = wrap.Error.GasBudget
		re.RetryAfter = wrap.Error.RetryAfter
	}
	if re.RetryAfter == 0 {
		if s := resp.Header.Get("Retry-After"); s != "" {
			if n, err := strconv.Atoi(s); err == nil {
				re.RetryAfter = n
			}
		}
	}
	return re
}

// Load registers a module with the server.
func (c *Client) Load(ctx context.Context, req LoadRequest) (LoadResponse, error) {
	var out LoadResponse
	err := c.post(ctx, "/api/v1/load", req, &out)
	return out, err
}

// Run executes synchronously: the call returns when the run completes,
// is shed, or fails.
func (c *Client) Run(ctx context.Context, req RunRequest) (RunResponse, error) {
	var out RunResponse
	err := c.post(ctx, "/api/v1/run", req, &out)
	return out, err
}
