package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"dagcover/internal/service"
)

const andBLIF = ".model t\n.inputs a b\n.outputs y\n.names a b y\n11 1\n.end\n"

// A job whose status reports 3 settled items, one of them failed (a 504
// on its deadline), has 2 good items: the ok rate must drop below a 0.99
// floor even though every sync request succeeded.
func TestRunJobCountsFailedItemsAsNotOK(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/jobs":
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprint(w, `{"job_id":"j1","items":3,"status_url":"/jobs/j1","result_url":"/jobs/j1/result"}`)
		case "/jobs/j1":
			fmt.Fprint(w, `{"state":"done","items":3,"completed":3,"failed":1,"cancelled":0}`)
		case "/jobs/j1/result":
			fmt.Fprint(w, "{\"index\":0,\"status\":200}\n{\"index\":1,\"status\":200}\n{\"index\":2,\"status\":504}\n")
		default:
			http.NotFound(w, r)
		}
	}))
	defer ts.Close()

	var mu sync.Mutex
	c := &counters{syncSent: 10, syncOK: 10, syncLatencyMillis: []float64{1}}
	picks := []workItem{{"a", andBLIF}, {"b", andBLIF}, {"c", andBLIF}}
	runJob(ts.Client(), ts.URL, "44-1", picks, 0, &mu, c)
	if c.jobItems != 3 || c.jobItemsOK != 2 || c.streamRecords != 3 {
		t.Fatalf("items %d ok %d records %d, want 3, 2, 3", c.jobItems, c.jobItemsOK, c.streamRecords)
	}
	r := buildReport(ts.URL, 1, 5, time.Second, c, SLO{MaxShedRate: -1, MinOKRate: 0.99})
	if want := 12.0 / 13.0; r.OKRate != want || r.Pass {
		t.Fatalf("ok rate %v pass %v, want %v failing the 0.99 floor", r.OKRate, r.Pass, want)
	}
}

// The same counting against a real server: an unparsable item settles
// failed, and only the mapped items count as ok.
func TestRunJobAgainstServerCountsFailedItems(t *testing.T) {
	ts := httptest.NewServer(service.New(service.Config{}).Handler())
	defer ts.Close()

	var mu sync.Mutex
	c := &counters{}
	picks := []workItem{{"good1", andBLIF}, {"bad", ".model t\n.inputs a\n.outputs y\n.names a q y\n11 1\n"}, {"good2", andBLIF}}
	runJob(ts.Client(), ts.URL, "44-1", picks, 0, &mu, c)
	if c.jobsDone != 1 || c.jobItems != 3 || c.jobItemsOK != 2 || c.streamRecords != 3 {
		t.Fatalf("jobs done %d items %d ok %d records %d, want 1, 3, 2, 3",
			c.jobsDone, c.jobItems, c.jobItemsOK, c.streamRecords)
	}
}
