package httpapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// Error codes carried in the uniform JSON error envelope. Clients branch on
// the code (via AsAPIError / HasCode), never on message text.
const (
	// CodeBadRequest: the body could not be parsed (malformed JSON, bad
	// hex, bytes that are not the board encoding).
	CodeBadRequest = "bad_request"
	// CodeVoteRejected: the VC node refused the vote at the protocol level
	// (already voted with a different code, outside voting hours, unknown
	// serial, strict-journal refusal).
	CodeVoteRejected = "vote_rejected"
	// CodeNotFound: the requested data is not (yet) published — trustees
	// and auditors poll until it appears — or the path is not a route.
	CodeNotFound = "not_found"
	// CodeBadSubmission: the BB node refused a write (bad signature,
	// equivocation, wrong election).
	CodeBadSubmission = "bad_submission"
	// CodeUnknown is the client-side fallback when a non-envelope body
	// (proxy error page, legacy server) comes back on an error status.
	CodeUnknown = "unknown"
)

// ErrorEnvelope is the uniform JSON error body of every endpoint: a stable
// machine-readable code plus a human-readable message.
type ErrorEnvelope struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// APIError is the typed client-side error decoded from an ErrorEnvelope.
type APIError struct {
	Status  int    // HTTP status code
	Code    string // envelope code (CodeUnknown for non-envelope bodies)
	Message string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("httpapi: %s: %s (HTTP %d)", e.Code, e.Message, e.Status)
}

// AsAPIError unwraps err to the typed *APIError, if any.
func AsAPIError(err error) (*APIError, bool) {
	var ae *APIError
	if errors.As(err, &ae) {
		return ae, true
	}
	return nil, false
}

// HasCode reports whether err carries the given envelope code.
func HasCode(err error, code string) bool {
	ae, ok := AsAPIError(err)
	return ok && ae.Code == code
}

// writeError emits the uniform envelope. Every handler error path funnels
// through here so clients see one shape regardless of endpoint.
func writeError(w http.ResponseWriter, status int, code, message string) {
	writeJSON(w, status, ErrorEnvelope{Code: code, Message: message})
}

// decodeAPIError turns a non-2xx response into a typed error: envelope
// bodies become their code/message, anything else (proxy pages, legacy
// text bodies) is surfaced verbatim under CodeUnknown so it stays
// debuggable.
func decodeAPIError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	var env ErrorEnvelope
	if err := json.Unmarshal(body, &env); err == nil && env.Code != "" {
		return &APIError{Status: resp.StatusCode, Code: env.Code, Message: env.Message}
	}
	msg := strings.TrimSpace(string(bytes.TrimSpace(body)))
	if msg == "" {
		msg = resp.Status
	}
	return &APIError{Status: resp.StatusCode, Code: CodeUnknown, Message: msg}
}
