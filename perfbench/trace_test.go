package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"dyncoll"
	"dyncoll/internal/server"
)

// TestSearchCallbackCountsAsBackendTime: the time a collection's Search
// spends in the backend's callback (encoding and flushing each NDJSON
// line) belongs to the backend handler's self time, not to the
// collection call.
func TestSearchCallbackCountsAsBackendTime(t *testing.T) {
	c, err := dyncoll.NewCollection()
	if err != nil {
		t.Fatal(err)
	}
	docs := []dyncoll.Document{{ID: 1, Data: []byte("xabcxabcx")}, {ID: 2, Data: []byte("abcyy")}}
	if err := c.InsertBatch(docs); err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	tr.on.Store(true)
	coll := &tracedColl{Coll: server.PlainColl{Collection: c}, tr: tr, node: 0, writeLayer: "dyncoll"}
	const pause = 5 * time.Millisecond
	matches := 0
	backend := tr.handler("server.backend", 0, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		coll.Search(dyncoll.SearchPlan{Pattern: "abc"}, func(dyncoll.Match) bool {
			time.Sleep(pause) // a slow NDJSON writer
			matches++
			return true
		})
	}))
	backend.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/search",
		bytes.NewReader([]byte(`{"q":"abc"}`))))
	if matches != 3 {
		t.Fatalf("%d matches, want 3", matches)
	}

	spans := tr.spans
	link(spans)
	var search *span
	for i := range spans {
		if spans[i].Layer == "dyncoll" {
			search = &spans[i]
		}
	}
	if search == nil || search.Parent < 0 || spans[search.Parent].Layer != "server.backend" {
		t.Fatalf("collection span not linked to the backend span: %+v", spans)
	}
	slow := int64(matches) * int64(pause)
	if search.dur() >= int64(pause) {
		t.Errorf("dyncoll.Search took %v, which includes the callback's %v", time.Duration(search.dur()), time.Duration(slow))
	}
	self := layerTimes(spans)["server.backend.search"]
	if len(self) != 1 || self[0] < float64(slow)/1e3 {
		t.Errorf("backend search self time %v µs, want at least the callback's %v", self, time.Duration(slow))
	}
}
