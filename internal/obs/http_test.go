package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

func get(t *testing.T, srv *httptest.Server, path string) []byte {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d\n%s", path, resp.StatusCode, body)
	}
	return body
}

func TestDebugEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("leap.events").Add(99)
	prog := &Progress{}
	prog.Record(2.0, 1000, 50, 200)
	prog.RecordBatch(4)

	ft := NewFlowTracer(FlowTraceConfig{SampleRate: 1})
	ft.Bind([]float64{10, 10, 5})
	ft.Admit(0, 1000, 0, []int{0, 2})
	ft.Rate(0, 0, 2.5, 2, CauseSolve, 2, 1)
	ft.Complete(0, 3.2)

	srv := httptest.NewServer(Handler(reg, prog, ft))
	defer srv.Close()

	var snap Snapshot
	if err := json.Unmarshal(get(t, srv, "/metrics"), &snap); err != nil {
		t.Fatalf("/metrics does not parse: %v", err)
	}
	if snap.Counters["leap.events"] != 99 {
		t.Errorf("/metrics counter = %d, want 99", snap.Counters["leap.events"])
	}

	var ps ProgressSnapshot
	if err := json.Unmarshal(get(t, srv, "/progress"), &ps); err != nil {
		t.Fatalf("/progress does not parse: %v", err)
	}
	if ps.Events != 1000 || ps.ActiveFlows != 50 || ps.Finished != 200 || ps.BatchComponents != 4 {
		t.Errorf("/progress = %+v", ps)
	}
	if ps.SimSeconds < 1.99 || ps.SimSeconds > 2.01 {
		t.Errorf("sim_seconds = %g, want ~2", ps.SimSeconds)
	}

	var fs FlowsSnapshot
	if err := json.Unmarshal(get(t, srv, "/flows"), &fs); err != nil {
		t.Fatalf("/flows does not parse: %v", err)
	}
	if fs.Tracked != 1 || fs.Completed != 1 || len(fs.Flows) != 1 {
		t.Errorf("/flows = %+v", fs)
	}
	var links []LinkSnapshot
	if err := json.Unmarshal(get(t, srv, "/links"), &links); err != nil {
		t.Fatalf("/links does not parse: %v", err)
	}
	if len(links) != 2 { // links 0 and 2 were touched
		t.Errorf("/links = %+v", links)
	}

	// pprof and expvar must be mounted.
	get(t, srv, "/debug/pprof/cmdline")
	get(t, srv, "/debug/vars")
	get(t, srv, "/")
}

func TestDebugEndpointsNilBackends(t *testing.T) {
	srv := httptest.NewServer(Handler(nil, nil, nil))
	defer srv.Close()
	if body := get(t, srv, "/metrics"); len(body) == 0 {
		t.Error("nil-registry /metrics should still serve JSON")
	}
	var ps ProgressSnapshot
	if err := json.Unmarshal(get(t, srv, "/progress"), &ps); err != nil {
		t.Fatalf("nil-progress /progress does not parse: %v", err)
	}
	if body := get(t, srv, "/flows"); len(body) == 0 {
		t.Error("nil-tracer /flows should still serve JSON")
	}
	if body := get(t, srv, "/links"); len(body) == 0 {
		t.Error("nil-tracer /links should still serve JSON")
	}
}

func TestServe(t *testing.T) {
	ln, err := Serve("127.0.0.1:0", NewRegistry(), &Progress{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	resp, err := http.Get("http://" + ln.Addr().String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestProgressRates(t *testing.T) {
	var p Progress
	p.Record(0, 0, 0, 0)
	p.Record(5, 500, 10, 20)
	s := p.Snapshot()
	if s.Events != 500 || s.SimSeconds != 5 {
		t.Fatalf("snapshot = %+v", s)
	}
	if s.WallSeconds < 0 {
		t.Fatalf("wall_seconds = %g", s.WallSeconds)
	}
}
