package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Client is the thin HTTP client behind the CLIs' -server flag: submit a
// job, wait on its event stream until it ends, hand back the JobStatus. It
// retries 429s honoring Retry-After — the admission-control contract from
// the other side.
type Client struct {
	BaseURL string
}

// maxSubmitRetries bounds the 429 retries of one submit.
const maxSubmitRetries = 10

// NewClient returns a Client for the daemon at baseURL.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: baseURL}
}

// decodeStatus reads one JobStatus response body; non-2xx bodies decode
// into the server's error envelope.
func decodeStatus(resp *http.Response) (*JobStatus, error) {
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("serve client: read response: %w", err)
	}
	if resp.StatusCode >= 300 {
		var e errorBody
		if json.Unmarshal(body, &e) == nil && e.Error != "" {
			return nil, fmt.Errorf("server: %s (HTTP %d)", e.Error, resp.StatusCode)
		}
		return nil, fmt.Errorf("server: HTTP %d", resp.StatusCode)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		return nil, fmt.Errorf("serve client: decode status: %w", err)
	}
	return &st, nil
}

// Submit posts one job. On 429 it waits out the server's Retry-After hint
// (at most maxSubmitRetries times) before retrying; every other non-2xx
// is a terminal error.
func (c *Client) Submit(ctx context.Context, req JobRequest) (*JobStatus, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	for attempt := 0; ; attempt++ {
		hreq, err := http.NewRequestWithContext(ctx, http.MethodPost,
			c.BaseURL+"/jobs", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		hreq.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(hreq)
		if err != nil {
			return nil, fmt.Errorf("serve client: submit: %w", err)
		}
		if resp.StatusCode == http.StatusTooManyRequests && attempt < maxSubmitRetries {
			wait := time.Second
			if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
				wait = time.Duration(secs) * time.Second
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			select {
			case <-time.After(wait):
				continue
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		st, derr := decodeStatus(resp)
		resp.Body.Close()
		return st, derr
	}
}

// Job fetches one job's current status.
func (c *Client) Job(ctx context.Context, id string) (*JobStatus, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.BaseURL+"/jobs/"+id, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		return nil, fmt.Errorf("serve client: get job: %w", err)
	}
	defer resp.Body.Close()
	return decodeStatus(resp)
}

// Wait follows the job's event stream until it ends, then reads the
// job's status once. The server drops a subscriber that falls behind, so
// a status that is not terminal yet means the stream ended early: Wait
// subscribes again, and the server replays the job's history.
func (c *Client) Wait(ctx context.Context, id string) (*JobStatus, error) {
	for {
		if err := c.follow(ctx, id); err != nil {
			return nil, err
		}
		st, err := c.Job(ctx, id)
		if err != nil {
			return nil, err
		}
		if terminal(st.State) {
			return st, nil
		}
	}
}

// follow reads GET /jobs/{id}/events until a terminal event or the end of
// the stream. A stream that breaks off is not an error: Wait's status
// read decides what it meant.
func (c *Client) follow(ctx context.Context, id string) error {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.BaseURL+"/jobs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		return fmt.Errorf("serve client: follow events: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		_, err := decodeStatus(resp)
		return err
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if state, ok := strings.CutPrefix(sc.Text(), "event: "); ok && terminal(state) {
			return nil
		}
	}
	return nil
}

// Run submits a job and waits for its terminal status — the whole
// -server client mode in one call. Cache hits return immediately (the
// submit response is already terminal).
func (c *Client) Run(ctx context.Context, req JobRequest) (*JobStatus, error) {
	st, err := c.Submit(ctx, req)
	if err != nil {
		return nil, err
	}
	if terminal(st.State) {
		return st, nil
	}
	return c.Wait(ctx, st.JobID)
}
