package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"dyncoll"
	"dyncoll/internal/server"
)

// client speaks the dyndocd HTTP API to the frontend over at most
// `conns` connections, so queueing shows up as latency rather than as
// extra client threads.
type client struct {
	base string
	hc   *http.Client
	tr   *tracer
}

func newClient(base string, conns int, tr *tracer) *client {
	return &client{base: base, tr: tr, hc: &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request, records the client span when tracing, checks
// for 200 and hands the body to read.
func (c *client) do(op, key string, req *http.Request, read func(io.Reader) error) error {
	var start, id int64
	if c.tr.active() {
		id = c.tr.seq.Add(1)
		req.Header.Set(reqHeader, strconv.FormatInt(id, 10))
		start = c.tr.now()
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s: status %d: %s", op, resp.StatusCode, bytes.TrimSpace(msg))
	}
	err = read(resp.Body)
	if id != 0 {
		c.tr.record(span{Layer: "client", Op: op, Node: -1, Key: key, Req: id, Start: start, End: c.tr.now()})
	}
	return err
}

func (c *client) get(op string, q url.Values, read func(io.Reader) error) error {
	req, err := http.NewRequest(http.MethodGet, c.base+"/v1/"+op+"?"+q.Encode(), nil)
	if err != nil {
		return err
	}
	return c.do(op, q.Get("q"), req, read)
}

func (c *client) post(op, key string, body any, read func(io.Reader) error) error {
	raw, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPost, c.base+"/v1/"+op, bytes.NewReader(raw))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	return c.do(op, key, req, read)
}

func decodeInto(v any) func(io.Reader) error {
	return func(r io.Reader) error { return json.NewDecoder(r).Decode(v) }
}

// ndjson decodes every line of a stream into a fresh T.
func ndjson[T any](out *[]T) func(io.Reader) error {
	return func(r io.Reader) error {
		sc := bufio.NewScanner(r)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			if len(bytes.TrimSpace(sc.Bytes())) == 0 {
				continue
			}
			var v T
			if err := json.Unmarshal(sc.Bytes(), &v); err != nil {
				return err
			}
			*out = append(*out, v)
		}
		return sc.Err()
	}
}

func (c *client) count(p []byte) (int, error) {
	var out server.CountResponse
	if err := c.get("count", url.Values{"q": {string(p)}}, decodeInto(&out)); err != nil {
		return 0, err
	}
	if out.Partial {
		return 0, fmt.Errorf("count: partial answer: %v", out.Failed)
	}
	return out.Count, nil
}

func (c *client) find(p []byte, limit int) ([]server.FindResult, error) {
	var out []server.FindResult
	q := url.Values{"q": {string(p)}, "limit": {strconv.Itoa(limit)}}
	if err := c.get("find", q, ndjson(&out)); err != nil {
		return nil, err
	}
	for _, r := range out {
		if r.Err != "" {
			return nil, fmt.Errorf("find: in-band error: %s", r.Err)
		}
	}
	return out, nil
}

func (c *client) search(spec dyncoll.SearchPlan) ([]server.SearchResult, error) {
	var out []server.SearchResult
	if err := c.post("search", string(spec.PatternBytes()), spec, ndjson(&out)); err != nil {
		return nil, err
	}
	for _, r := range out {
		if r.Err != "" {
			return nil, fmt.Errorf("search: in-band error: %s", r.Err)
		}
	}
	return out, nil
}

func (c *client) extract(id uint64, off, n int) ([]byte, error) {
	var out server.ExtractResponse
	q := url.Values{"id": {strconv.FormatUint(id, 10)}, "off": {strconv.Itoa(off)}, "len": {strconv.Itoa(n)}}
	req, err := http.NewRequest(http.MethodGet, c.base+"/v1/extract?"+q.Encode(), nil)
	if err != nil {
		return nil, err
	}
	if err := c.do("extract", q.Get("id"), req, decodeInto(&out)); err != nil {
		return nil, err
	}
	return out.Data, nil
}

func (c *client) insert(docs []dyncoll.Document) error {
	req := server.InsertRequest{Docs: make([]server.DocJSON, len(docs))}
	for i, d := range docs {
		req.Docs[i] = server.DocJSON{ID: d.ID, Data: d.Data}
	}
	var out server.InsertResponse
	if err := c.post("insert", strconv.FormatUint(docs[0].ID, 10), req, decodeInto(&out)); err != nil {
		return err
	}
	if out.Inserted != len(docs) {
		return fmt.Errorf("insert: %d of %d acknowledged", out.Inserted, len(docs))
	}
	return nil
}

func (c *client) delete(ids []uint64) (int, error) {
	var out server.DeleteResponse
	if err := c.post("delete", strconv.FormatUint(ids[0], 10), server.DeleteRequest{IDs: ids}, decodeInto(&out)); err != nil {
		return 0, err
	}
	return out.Deleted, nil
}

// varz reads the frontend's /varz document.
func (c *client) varz() (server.Varz, error) {
	var v server.Varz
	req, err := http.NewRequest(http.MethodGet, c.base+"/varz", nil)
	if err != nil {
		return v, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return v, err
	}
	defer resp.Body.Close()
	return v, json.NewDecoder(resp.Body).Decode(&v)
}
