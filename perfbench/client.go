package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"ensemfdet/internal/bipartite"
)

// requestTimeout bounds every measured request; one that runs past it counts
// as failed.
const requestTimeout = 10 * time.Second

// client speaks the daemon's HTTP API over at most conns keep-alive
// connections.
type client struct {
	hc  *http.Client
	url string
	// status5xx counts server errors, which the correctness checks forbid.
	status5xx atomic.Int64
}

func newClient(url string, conns int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &client{hc: &http.Client{Transport: tr}, url: url}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do posts body to path and decodes a 200 response into out. It returns
// whether the request succeeded: a 429, any other non-200 status, a
// transport error or a timeout is a failure.
func (c *client) do(ctx context.Context, path string, body []byte, out any) bool {
	ctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url+path, bytes.NewReader(body))
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return false
	}
	if resp.StatusCode >= 500 {
		c.status5xx.Add(1)
	}
	return resp.StatusCode == http.StatusOK && json.Unmarshal(data, out) == nil
}

type ingestAck struct {
	Version uint64 `json:"version"`
}

// encodeEdges renders a /v1/edges body.
func encodeEdges(edges []bipartite.Edge) []byte {
	b := make([]byte, 0, 12+len(edges)*16)
	b = append(b, `{"edges":[`...)
	for i, e := range edges {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		b = strconv.AppendUint(b, uint64(e.U), 10)
		b = append(b, ',')
		b = strconv.AppendUint(b, uint64(e.V), 10)
		b = append(b, ']')
	}
	return append(b, "]}"...)
}

func (c *client) ingest(ctx context.Context, body []byte) (ingestAck, bool) {
	var ack ingestAck
	ok := c.do(ctx, "/v1/edges", body, &ack)
	return ack, ok
}

// detectConfig is one /v1/detect request's ensemble configuration.
type detectConfig struct {
	Sampler string  `json:"sampler"`
	N       int     `json:"n"`
	S       float64 `json:"s"`
	T       int     `json:"t"`
}

type detectResp struct {
	GraphVersion uint64   `json:"graph_version"`
	Users        []uint32 `json:"users"`
	Merchants    []uint32 `json:"merchants"`
}

func (c *client) detect(ctx context.Context, cfg detectConfig, seed int64) (detectResp, bool) {
	body := fmt.Sprintf(`{"sampler":%q,"n":%d,"s":%g,"t":%d,"seed":%d}`, cfg.Sampler, cfg.N, cfg.S, cfg.T, seed)
	var resp detectResp
	ok := c.do(ctx, "/v1/detect", []byte(body), &resp)
	return resp, ok
}
