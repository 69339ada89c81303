package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"nexuspp/internal/workload"
)

// dagBatch and chainBatch are the two request shapes the benchmark sends:
// a 64-task cut of a random DAG (svc_closed) and an 8-task inout chain on
// one address (svc_open).
func dagBatch() []TaskSpec {
	src := workload.RandomDAG(workload.RandomDAGConfig{Tasks: 64, Seed: 42, BaseAddr: 0x3000_0000})
	var batch []TaskSpec
	for spec, ok := src.Next(); ok; spec, ok = src.Next() {
		spec.Exec = 0
		batch = append(batch, FromTraceSpec(spec))
	}
	return batch
}

func chainBatch() []TaskSpec {
	chain := make([]TaskSpec, 8)
	for i := range chain {
		chain[i] = TaskSpec{Params: []Param{{Addr: 0x5000_0000, Size: 64, Mode: "inout"}}}
	}
	return chain
}

func mustMarshal(tb testing.TB, v any) []byte {
	tb.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

const nasty = "q\"b\\s/ <&> \b\f\n\r\t\x00\x1f\x7f é \u2028\u2029 \U0001F600 \xff\xc0 end"

// TestCodecEmitsWhatEncodingJSONDid pins byte identity: appendJSON, and
// json.Marshal through MarshalJSON, against json.Marshal of the shadow.
func TestCodecEmitsWhatEncodingJSONDid(t *testing.T) {
	type pair struct {
		name   string
		codec  wireEncoder
		shadow any
	}
	var cases []pair
	add := func(name string, v wireEncoder) {
		var shadow any
		switch v := v.(type) {
		case SubmitRequest:
			shadow = shadowSubmitRequest(v)
		case SubmitResponse:
			shadow = shadowSubmitResponse(v)
		case AwaitRequest:
			shadow = shadowAwaitRequest(v)
		case AwaitResponse:
			shadow = shadowAwaitResponse(v)
		}
		cases = append(cases, pair{name, v, shadow})
	}
	add("submit/zero", SubmitRequest{})
	add("submit/empty", SubmitRequest{Tasks: []TaskSpec{}})
	add("submit/dag", SubmitRequest{Tasks: dagBatch()})
	add("submit/chain+key", SubmitRequest{Tasks: chainBatch(), IdempotencyKey: "k-" + nasty})
	add("submit/every field", SubmitRequest{Tasks: []TaskSpec{
		{Name: nasty, Params: []Param{{Addr: 1<<64 - 1, Size: 1<<32 - 1, Mode: "in"}, {Mode: nasty}}, ExecUS: -5, TimeoutMS: 1 << 62, MaxRetries: -3},
		{Params: nil},
		{Params: []Param{}, ExecUS: 7},
	}})
	add("submitresp/zero", SubmitResponse{})
	add("submitresp/empty", SubmitResponse{IDs: []uint64{}})
	add("submitresp/ids", SubmitResponse{IDs: []uint64{0, 1, 1<<64 - 1}, Deduped: true})
	add("await/zero", AwaitRequest{})
	add("await/empty ids", AwaitRequest{IDs: []uint64{}})
	add("await/ids", AwaitRequest{IDs: []uint64{3, 2, 1}})
	add("await/timeout", AwaitRequest{TimeoutMS: -1})
	add("await/both", AwaitRequest{IDs: []uint64{9}, TimeoutMS: 250})
	add("awaitresp/zero", AwaitResponse{})
	add("awaitresp/empty", AwaitResponse{Done: true, Tasks: []TaskStatus{}})
	add("awaitresp/mixed", AwaitResponse{Tasks: []TaskStatus{
		{ID: 0, State: StateOK},
		{ID: 1, State: StateFailed, Error: nasty},
		{ID: 1<<64 - 1, State: StateSkipped, Error: "starss: dependency failed"},
		{State: StatePending},
		{State: "<odd>"},
	}})
	for _, tc := range cases {
		want := mustMarshal(t, tc.shadow)
		if got := tc.codec.appendJSON(nil); !bytes.Equal(got, want) {
			t.Errorf("%s: appendJSON\n got %s\nwant %s", tc.name, got, want)
		}
		if got := mustMarshal(t, tc.codec); !bytes.Equal(got, want) {
			t.Errorf("%s: json.Marshal\n got %s\nwant %s", tc.name, got, want)
		}
		// Appending must leave what is already in dst alone.
		if got := tc.codec.appendJSON([]byte("xx")); !bytes.Equal(got[2:], want) || string(got[:2]) != "xx" {
			t.Errorf("%s: appendJSON onto a prefix: %s", tc.name, got)
		}
	}
}

// grammarSeeds are documents around every rule of the accepted language and
// every edge of the compact form; the fuzz targets start from them and
// TestCodecGrammar runs them all against all four types.
var grammarSeeds = []string{
	``, ` `, `null`, ` null `, `nul`, `{}`, `[]`, `5`, `"x"`, `true`, `{`, `}`, `{}x`, `{} {}`, "{}\n\t\r ",
	`{"tasks":null}`, `{"tasks":[]}`, `{"tasks":{}}`, `{"tasks":5}`, `{"tasks":[null]}`, `{"tasks":[5]}`,
	`{"tasks":[{}]}`, `{"tasks":[{"params":null}]}`, `{"tasks":[{"params":[]}]}`, `{"tasks":[{"params":[null]}]}`,
	`{"tasks":[{"params":[{"addr":1,"mode":"in"}]}],}`, `{"tasks":[{"params":[{"addr":1,"mode":"in"},]}]}`,
	`{,}`, `{"a"}`, `{"a":}`, `{"a" 1}`, `{"tasks":[,]}`, `{"tasks":[{}{}]}`,
	`{"tasks":[{"name":"a","params":[{"addr":1,"size":2,"mode":"in"},{"addr":3,"mode":"out"}],"exec_us":4,"timeout_ms":5,"max_retries":6}],"idempotency_key":"k"}`,
	` { "tasks" : [ { "params" : [ { "mode" : "inout" , "addr" : 7 } ] , "name" : "n" } ] } `,
	`{"tasks":[{"params":[{"addr":1e3,"mode":"in"}]}]}`, `{"tasks":[{"params":[{"addr":-1,"mode":"in"}]}]}`,
	`{"tasks":[{"params":[{"addr":-0,"mode":"in"}]}]}`, `{"tasks":[{"params":[{"addr":1.0,"mode":"in"}]}]}`,
	`{"tasks":[{"params":[{"addr":01,"mode":"in"}]}]}`, `{"tasks":[{"params":[{"addr":"1","mode":"in"}]}]}`,
	`{"tasks":[{"params":[{"addr":18446744073709551615,"mode":"in"}]}]}`,
	`{"tasks":[{"params":[{"addr":18446744073709551616,"mode":"in"}]}]}`,
	`{"tasks":[{"params":[{"addr":1,"size":4294967295,"mode":"in"}]}]}`,
	`{"tasks":[{"params":[{"addr":1,"size":4294967296,"mode":"in"}]}]}`,
	`{"tasks":[{"params":[{"addr":null,"size":null,"mode":null}]}]}`,
	`{"tasks":[{"params":[{"addr":1,"mode":"rw"}],"name":"b\u0061\"d"}]}`,
	`{"tasks":[{"params":[{"addr":1,"mode":"i\u006e"}]}]}`, `{"tasks":[{"params":[{"addr":1,"mode":5}]}]}`,
	`{"tasks":[{"exec_us":-9223372036854775808,"timeout_ms":9223372036854775807,"params":[]}]}`,
	`{"tasks":[{"exec_us":-9223372036854775809,"params":[]}]}`, `{"tasks":[{"exec_us":9223372036854775808,"params":[]}]}`,
	`{"tasks":[{"exec_us":1.5,"params":[]}]}`, `{"tasks":[{"exec_us":-0,"max_retries":-2,"params":[]}]}`,
	`{"tasks":[{"max_retries":"2","params":[]}]}`, `{"tasks":[{"name":null,"exec_us":null,"params":[]}]}`,
	`{"tasks":[{"name":7,"params":[]}]}`,
	`{"idempotency_key":"a","idempotency_key":"b"}`, `{"idempotency_key":"a","idempotency_key":null}`,
	`{"tasks":[{"params":[{"addr":1,"addr":2,"mode":"in","mode":"out"}]}]}`,
	`{"tasks":[{"params":[{"addr":1,"mode":"in"}],"params":[{"addr":2,"mode":"out"},{"addr":3,"mode":"in"}]}]}`,
	`{"tasks":[{"name":"a","params":[]}],"tasks":[{"params":[{"addr":9,"mode":"in"}]}]}`,
	`{"Tasks":[{"params":[{"addr":1,"mode":"in"}]}]}`, `{"tasks":[{"PARAMS":[],"params":[{"Addr":4,"addr":1,"mode":"in"}]}]}`,
	`{"unknown":{"a":[1,2,{"b":[[[[[[null,true,false,-1.5e+9,"s\\\"\u00e9"]]]]]]}],"c":{}},"tasks":[]}`,
	`{"unknown":` + strings.Repeat("[", 64) + strings.Repeat("]", 64) + `}`,
	`{"unknown":` + strings.Repeat(`{"a":`, 64) + `1` + strings.Repeat("}", 64) + `}`,
	`{"unknown":[1,}`, `{"unknown":tru}`, `{"unknown":1.}`, `{"unknown":1e}`, `{"unknown":-}`, `{"unknown":.5}`, `{"unknown":+1}`,
	`{"unknown":"\x"}`, `{"unknown":"\u12"}`, `{"unknown":"\u12G4"}`, `{"unknown":"a` + "\n" + `b"}`, `{"unknown":"open`,
	`{"ta\u0073ks":[]}`, `{"\u0074asks":null,"x\ud83d\ude00":1}`,
	`{"idempotency_key":"\ud83d\ude00 \ud83d \ude00 \ud83dx \ud83d\u0041 \udfff\ud83d"}`,
	"{\"idempotency_key\":\"raw \xff\xfe \xe2\x82 \xf0\x9f\x98\x80 \xc0\xaf\"}",
	`{"idempotency_key":"\/\b\f\n\r\t\\\""}`, `{"idempotency_key":"\'"}`, "{\"idempotency_key\":\"\x7f\"}", "\ufeff{}",
	`{"ids":null}`, `{"ids":[]}`, `{"ids":[1,2,3]}`, `{"ids":[1,2,3],"ids":[4]}`, `{"ids":[null]}`, `{"ids":[-1]}`, `{"ids":[1.5]}`,
	`{"ids":["1"]}`, `{"ids":{}}`, `{"ids":[1,2],"timeout_ms":30}`, `{"timeout_ms":-1}`, `{"timeout_ms":1e2}`, `{"ids":[1 2]}`,
	`{"ids":[0,1],"deduped":true}`, `{"deduped":false}`, `{"deduped":null}`, `{"deduped":1}`, `{"deduped":"true"}`, `{"deduped":tru}`,
	`{"done":true,"tasks":[{"id":0,"state":"ok"},{"id":1,"state":"failed","error":"boom \u003c"},{"id":2,"state":"skipped"},{"id":3,"state":"pending"},{"id":4,"state":"odd"}]}`,
	`{"done":false,"tasks":null}`, `{"done":true,"tasks":[]}`, `{"tasks":[{"id":1,"state":"ok"}],"tasks":[{"id":2}]}`,
	`{"done":true,"tasks":[{"id":"0"}]}`, `{"done":true,"tasks":[{"state":0}]}`, `{"done":true,"tasks":[null,{}]}`,
	`{"done":true,"tasks":[{"id":0,"state":"ok","error":null}]}`,
	// The compact form's edges: each is the encoder's layout but for one
	// thing the compact reader must leave to encoding/json.
	`{"tasks":[{"params":[{"addr":1,"mode":"in"}]}]}`, `{"tasks":[{"params":[{"addr":0,"size":0,"mode":""}]}]}`,
	`{"tasks":[{"params":[{"addr":1,"size":01,"mode":"in"}]}]}`, `{"tasks":[{"params":[{"addr":1,"size":4e2,"mode":"in"}]}]}`,
	`{"tasks":[{"params":[{"addr":99999999999999999999,"mode":"in"}]}]}`,
	`{"tasks":[{"params":[{"size":8,"addr":1,"mode":"in"}]}]}`, `{"tasks":[{"params":[{"addr":1,"addr":2,"mode":"in"}]}]}`,
	`{"tasks":[{"params":[{"addr":1,"mode":"in","mode":"out"}]}]}`, `{"tasks":[{"params":[{"addr":1,"mode":"in","size":8}]}]}`,
	"{\"tasks\":[{\"params\":[{\"addr\":1,\"mode\":\"\u00efn\"}]}]}", "{\"tasks\":[{\"params\":[{\"addr\":1,\"mode\":\"i\xffn\"}]}]}",
	"{\"tasks\":[{\"params\":[{\"addr\":1,\"mode\":\"i\tn\"}]}]}", `{"tasks":[{"params":[{"addr":1,"mode":"in\""}]}]}`,
	`{"tasks":[{"params":[{"addr":1,"mode":"in"}],"exec_us":5,"name":"late"}]}`,
	`{"tasks":[{"params":[{"addr":1,"mode":"in"}],"params":[{"addr":2,"mode":"out"}]}]}`,
	`{"tasks":[{"params":null,"timeout_ms":3}]}`, `{"tasks":[{"params":[{"addr":1,"mode":"in"}]`,
	`{"tasks":[{"params":[{"addr":1,"size":8,"mo`, `{"tasks":[{"params":[{"addr":1,"size":8,"mode":"inou`, `{"tasks":[{"params":[{"addr":12`,
	`{"ids":[1, 2,3]}`, `{"ids":[1 ,2]}`, `{"ids":[01]}`, `{"ids":[0,1e2]}`, `{"ids":[18446744073709551615,18446744073709551616]}`,
	`{"ids":[7,-0]}`, `{"ids":[1,2`, `{"ids":[1,]}`,
	`{"done":true,"tasks":[{"id":01,"state":"ok"}]}`, `{"done":true,"tasks":[{"id":1,"state":"o\u006b"}]}`,
	`{"done":true,"tasks":[{"id":1,"state":"ok","state":"failed"}]}`, `{"done":true,"tasks":[{"state":"ok","id":1}]}`,
	`{"done":true,"tasks":[{"id":1,"state":"ok"},{"id":2,"state":"o`,
	// Whole documents in the compact form, and one change away from it.
	`{"tasks":[{"name":"n","params":[{"addr":1,"size":8,"mode":"in"}],"exec_us":-5,"timeout_ms":7,"max_retries":-3}],"idempotency_key":"0123abcd"}`,
	`{"tasks":[{"params":[],"exec_us":9223372036854775807,"timeout_ms":-9223372036854775808}]}`,
	`{"tasks":[{"params":[{"addr":1,"mode":"in"}],"max_retries":-9223372036854775809}]}`, `{"tasks":[{"params":[],"exec_us":-}]}`,
	`{"tasks":[{"params":[{"addr":1,"mode":"in"}]},{"name":"b","params":null}],"idempotency_key":"k"}` + "\n",
	` {"tasks":null}`, "{\"tasks\":null}\r\n\t ", "{\"tasks\":null}\n}", `{"idempotency_key":"k","tasks":null}`,
	`{"tasks":[{"name":"a","exec_us":1,"params":[]}]}`, `{"tasks":[{"params":[],"timeout_ms":1,"exec_us":2}]}`,
	"{\"ids\":[0,1,2]}\n", "{\"ids\":[0],\"deduped\":true}\n", `{"ids":[0],"deduped":false}`, "{\"ids\":null}\n",
	`{"timeout_ms":10000}`, `{"ids":[5],"timeout_ms":-9223372036854775808}`, `{"timeout_ms":5,"ids":[1]}`, `{"ids":[],"timeout_ms":0}`,
	"{\"done\":false,\"tasks\":[{\"id\":1,\"state\":\"failed\",\"error\":\"starss: task deadline exceeded after 5ms\"},{\"id\":2,\"state\":\"pending\"}]}\n",
	`{"done":true,"tasks":[{"id":1,"state":"ok","error":"a,b]c{d\"e"},{"id":2,"state":"ok"}]}`,
	`{"done":true,"tasks":[{"id":1,"state":"failed","error":"task \"x\" skipped"}]}`,
	`{"done":true,"tasks":[{"id":1,"state":"ok"}]}x`, `{"done":true,"tasks":[{"id":1,"state":"ok"}],"done":false}`,
	`{"ids":[,,,,,,1]}`, `{"done":true,"tasks":[,,,,{"id":1,"state":"ok"}]}`,
}

// checkCodec is the differential and round-trip check of one document as
// a T, whose method-less twin is S: the codec and encoding/json agree on
// accept or reject and on the decoded value, the value re-encodes to the
// bytes encoding/json emits, and those bytes decode back to the value.
func checkCodec[T wireEncoder, S any, PT interface {
	*T
	parseJSON([]byte) error
}](t *testing.T, data []byte) {
	t.Helper()
	var got T
	err := PT(&got).parseJSON(data)
	var want S
	if werr := json.Unmarshal(data, &want); (err == nil) != (werr == nil) {
		t.Fatalf("accept/reject split on %q: codec %v, encoding/json %v", data, err, werr)
	}
	if wantT := reflect.ValueOf(want).Convert(reflect.TypeFor[T]()).Interface(); err == nil && !reflect.DeepEqual(got, wantT) {
		t.Fatalf("decoded value of %q:\n got %+v\nwant %+v", data, got, wantT)
	}
	if err != nil {
		return
	}
	enc := got.appendJSON(nil)
	if ref := mustMarshal(t, reflect.ValueOf(got).Convert(reflect.TypeFor[S]()).Interface()); !bytes.Equal(enc, ref) {
		t.Fatalf("re-encoding %q:\n got %s\nwant %s", data, enc, ref)
	}
	// omitempty does not send an empty id list, so it comes back nil.
	if r, ok := any(&got).(*AwaitRequest); ok && len(r.IDs) == 0 {
		r.IDs = nil
	}
	var back T
	if err := PT(&back).parseJSON(enc); err != nil || !reflect.DeepEqual(back, got) {
		t.Fatalf("round trip of %q through %s: %v\n got %+v\nwant %+v", data, enc, err, back, got)
	}
}

func checkSubmitRequest(t *testing.T, data []byte) {
	t.Helper()
	checkCodec[SubmitRequest, shadowSubmitRequest](t, data)
}

func checkSubmitResponse(t *testing.T, data []byte) {
	t.Helper()
	checkCodec[SubmitResponse, shadowSubmitResponse](t, data)
}

func checkAwaitRequest(t *testing.T, data []byte) {
	t.Helper()
	checkCodec[AwaitRequest, shadowAwaitRequest](t, data)
}

func checkAwaitResponse(t *testing.T, data []byte) {
	t.Helper()
	checkCodec[AwaitResponse, shadowAwaitResponse](t, data)
}

// TestCodecGrammar runs every seed document through all four decoders
// against encoding/json, and pins three of its rules a hand-written decoder
// would easily miss: keys match case-insensitively, a repeated array key
// decodes over the earlier array, and bytes after the value are an error.
func TestCodecGrammar(t *testing.T) {
	for _, doc := range grammarSeeds {
		data := []byte(doc)
		checkSubmitRequest(t, data)
		checkSubmitResponse(t, data)
		checkAwaitRequest(t, data)
		checkAwaitResponse(t, data)
	}

	// A key matches its field case-insensitively.
	var req SubmitRequest
	want := SubmitRequest{Tasks: []TaskSpec{{Params: []Param{{Addr: 1, Mode: "in"}}}}, IdempotencyKey: "k"}
	if err := req.parseJSON([]byte(`{"Tasks":[{"PARAMS":[{"Addr":1,"mode":"in"}]}],"IDEMPOTENCY_KEY":"k"}`)); err != nil || !reflect.DeepEqual(req, want) {
		t.Errorf("case-variant keys: %+v, %v; want %+v", req, err, want)
	}
	// A repeated array key decodes the later array over the earlier one.
	for _, doc := range []string{
		`{"tasks":[{"name":"old","params":[{"addr":1,"size":8,"mode":"in"},{"addr":2,"mode":"out"}],"params":[{"addr":3}]}],
		  "tasks":[{"params":[{"addr":4,"mode":"inout"}]},{"params":[]}]}`,
		`{"tasks":[{"params":[{"addr":1,"mode":"in"}]}],"tasks":[{"params":[{"addr":2,"size":8,"mode":"out"}],"params":[{"mode":"in"}]}]}`,
	} {
		var want shadowSubmitRequest
		werr := json.Unmarshal([]byte(doc), &want)
		req = SubmitRequest{}
		if err := req.parseJSON([]byte(doc)); err != nil || werr != nil || !reflect.DeepEqual(req, SubmitRequest(want)) {
			t.Errorf("repeated array key: %+v, %v; encoding/json %+v, %v", req, err, want, werr)
		}
	}
	for _, doc := range []string{`{} x`, `{}{}`, `null 1`, `{"tasks":[]}]`, `{"tasks":[{"params":[{"addr":1,"mode":"in"}]}]} x`} {
		if err := req.parseJSON([]byte(doc)); err == nil {
			t.Errorf("%q: bytes after the top-level value must be rejected", doc)
		}
	}

	// Every task's params are one slab's consecutive, capacity-clipped
	// pieces, so appending to one cannot reach its neighbour's.
	if err := req.parseJSON(mustMarshal(t, SubmitRequest{Tasks: dagBatch()})); err != nil {
		t.Fatal(err)
	}
	for i := range req.Tasks {
		if p := req.Tasks[i].Params; cap(p) != len(p) {
			t.Fatalf("task %d: params len %d cap %d", i, len(p), cap(p))
		}
	}
	if !reflect.DeepEqual(req.Tasks, dagBatch()) {
		t.Error("64-task batch did not survive the slab re-slice")
	}

	// encoding/json caps nesting at 10000.
	const maxDepth = 10000
	deep := `{"x":` + strings.Repeat("[", maxDepth-1) + strings.Repeat("]", maxDepth-1) + `}`
	checkSubmitRequest(t, []byte(deep))
	if err := req.parseJSON([]byte(deep)); err != nil {
		t.Errorf("nesting of exactly %d must be accepted: %v", maxDepth, err)
	}
	deep = `{"x":` + strings.Repeat("[", maxDepth) + strings.Repeat("]", maxDepth) + `}`
	checkSubmitRequest(t, []byte(deep))
	if err := req.parseJSON([]byte(deep)); err == nil {
		t.Errorf("nesting beyond %d must be rejected", maxDepth)
	}
}

// indent spreads doc over lines as json.Indent does — a newline after every
// brace, bracket and comma outside a string, a space after every colon — but
// also when doc is not JSON, which json.Indent refuses. Whitespace between
// tokens changes no document's meaning, valid or not, and the compact reader
// takes none: the indented copy is read by encoding/json alone.
func indent(doc []byte) []byte {
	out := make([]byte, 0, 2*len(doc))
	for i := 0; i < len(doc); i++ {
		switch c := doc[i]; c {
		case '"':
			j := i + 1
			for ; j < len(doc) && doc[j] != '"'; j++ {
				if doc[j] == '\\' {
					j++
				}
			}
			j = min(j+1, len(doc))
			out = append(out, doc[i:j]...)
			i = j - 1
		case '{', '[', ',':
			out = append(out, c, '\n', '\t')
		case ':':
			out = append(out, c, ' ')
		default:
			out = append(out, c)
		}
	}
	return out
}

// sameDecode decodes a document and its indented copy as a T: both must be
// accepted or both rejected, to equal values.
func sameDecode[T any, PT interface {
	*T
	parseJSON([]byte) error
}](t *testing.T, doc, indented []byte) {
	t.Helper()
	var compact, general T
	cerr, gerr := PT(&compact).parseJSON(doc), PT(&general).parseJSON(indented)
	if (cerr == nil) != (gerr == nil) {
		t.Fatalf("%T: %q: %v, but indented %v", compact, doc, cerr, gerr)
	}
	if cerr == nil && !reflect.DeepEqual(compact, general) {
		t.Fatalf("%T: %q\n   compact %+v\n  indented %+v", compact, doc, compact, general)
	}
}

// TestCodecCompactMatchesGeneral holds the compact reader to encoding/json:
// every corpus document — the grammar seeds and what the encoder makes of the
// benchmark's messages — decodes, as each of the four types, exactly as its
// indented copy does.
func TestCodecCompactMatchesGeneral(t *testing.T) {
	statuses := make([]TaskStatus, 64)
	for i := range statuses {
		statuses[i] = TaskStatus{ID: uint64(i) << 40, State: StateOK}
	}
	statuses[7] = TaskStatus{ID: 7, State: StateFailed, Error: nasty}
	corpus := [][]byte{
		SubmitRequest{Tasks: dagBatch()}.appendJSON(nil),
		SubmitRequest{Tasks: chainBatch(), IdempotencyKey: nasty}.appendJSON(nil),
		SubmitResponse{IDs: []uint64{0, 9, 1<<64 - 1}, Deduped: true}.appendJSON(nil),
		AwaitRequest{IDs: []uint64{0, 1, 2, 3, 1e18}, TimeoutMS: 1}.appendJSON(nil),
		AwaitResponse{Done: true, Tasks: statuses}.appendJSON(nil),
	}
	for _, doc := range grammarSeeds {
		corpus = append(corpus, []byte(doc))
	}
	for _, doc := range corpus {
		indented := indent(doc)
		sameDecode[SubmitRequest](t, doc, indented)
		sameDecode[SubmitResponse](t, doc, indented)
		sameDecode[AwaitRequest](t, doc, indented)
		sameDecode[AwaitResponse](t, doc, indented)
	}
}

// TestCodecInternsAndCopies: decoded strings are constants or copies,
// never views of the source buffer, which the server recycles.
func TestCodecInternsAndCopies(t *testing.T) {
	src := []byte(`{"tasks":[{"name":"plain","params":[{"addr":1,"mode":"inout"},{"addr":2,"mode":"bogus"}]}],"idempotency_key":"key"}`)
	var req SubmitRequest
	if err := req.parseJSON(src); err != nil {
		t.Fatal(err)
	}
	for i := range src {
		src[i] = 'X'
	}
	want := SubmitRequest{
		Tasks:          []TaskSpec{{Name: "plain", Params: []Param{{Addr: 1, Mode: "inout"}, {Addr: 2, Mode: "bogus"}}}},
		IdempotencyKey: "key",
	}
	if !reflect.DeepEqual(req, want) {
		t.Errorf("decoded request changed with its source buffer: %+v", req)
	}
}

// fuzzServer is a live server behind the fuzz targets' handler checks.
func fuzzServer(f *testing.F) http.Handler {
	srv := New(Config{Workers: 2})
	f.Cleanup(func() { _ = srv.Close() })
	return srv.Handler()
}

// inSession runs fn against a session of its own, so every fuzz execution
// starts from the same server state and a crasher reproduces alone.
func inSession(t *testing.T, h http.Handler, fn func(path string)) {
	t.Helper()
	var info SessionInfo
	if code := call(t, h, http.MethodPost, "/v1/sessions", nil, &info); code != http.StatusCreated {
		t.Fatalf("open session: HTTP %d", code)
	}
	path := "/v1/sessions/" + info.Session
	defer call(t, h, http.MethodDelete, path, nil, new(map[string]string))
	fn(path)
}

// call sends one request through the handler and checks the reply is
// typed: JSON content, a 2xx carrying ok, or a 4xx carrying an
// ErrorResponse with a message. Anything else — a 5xx, a panic, an untyped
// body — fails.
func call(t *testing.T, h http.Handler, method, path string, data []byte, ok any) int {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(data)))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("%s %q: Content-Type %q", path, data, ct)
	}
	switch rec.Code / 100 {
	case 2:
		if err := json.Unmarshal(rec.Body.Bytes(), ok); err != nil {
			t.Fatalf("%s %q: HTTP %d body %q: %v", path, data, rec.Code, rec.Body, err)
		}
	case 4:
		var er ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error == "" {
			t.Fatalf("%s %q: HTTP %d body %q: %v", path, data, rec.Code, rec.Body, err)
		}
	default:
		t.Fatalf("%s %q: HTTP %d %s", path, data, rec.Code, rec.Body)
	}
	return rec.Code
}

func addSeeds(f *testing.F, more ...[]byte) {
	for _, doc := range grammarSeeds {
		f.Add([]byte(doc))
	}
	for _, doc := range more {
		f.Add(doc)
	}
}

func FuzzSubmitRequest(f *testing.F) {
	addSeeds(f,
		mustMarshal(f, SubmitRequest{Tasks: dagBatch()}),
		mustMarshal(f, SubmitRequest{Tasks: chainBatch()}),
		mustMarshal(f, SubmitRequest{Tasks: chainBatch(), IdempotencyKey: nasty}))
	h := fuzzServer(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSubmitRequest(t, data)
		var req SubmitRequest
		accepted := req.parseJSON(data) == nil
		inSession(t, h, func(path string) {
			var resp SubmitResponse
			code := call(t, h, http.MethodPost, path+"/submit", data, &resp)
			if !accepted && code != http.StatusBadRequest {
				t.Fatalf("%q is not a SubmitRequest but got HTTP %d", data, code)
			}
			if code == http.StatusOK && len(resp.IDs) != len(req.Tasks) {
				t.Fatalf("%q: %d ids for %d tasks", data, len(resp.IDs), len(req.Tasks))
			}
		})
	})
}

func FuzzAwaitRequest(f *testing.F) {
	addSeeds(f, mustMarshal(f, AwaitRequest{IDs: []uint64{0, 1, 2, 3, 4, 5, 6, 7}, TimeoutMS: 1}))
	h := fuzzServer(f)
	chain := mustMarshal(f, SubmitRequest{Tasks: chainBatch()})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAwaitRequest(t, data)
		var req AwaitRequest
		accepted := req.parseJSON(data) == nil
		inSession(t, h, func(path string) {
			// Eight empty-bodied tasks to await: no await waits long.
			var sub SubmitResponse
			if code := call(t, h, http.MethodPost, path+"/submit", chain, &sub); code != http.StatusOK {
				t.Fatalf("submit: HTTP %d", code)
			}
			var resp AwaitResponse
			code := call(t, h, http.MethodPost, path+"/await", data, &resp)
			if !accepted && code != http.StatusBadRequest {
				t.Fatalf("%q is not an AwaitRequest but got HTTP %d", data, code)
			}
			want := len(req.IDs)
			if want == 0 {
				want = len(sub.IDs)
			}
			if code == http.StatusOK && len(resp.Tasks) != want {
				t.Fatalf("%q: %d statuses, want %d", data, len(resp.Tasks), want)
			}
		})
	})
}

func FuzzAwaitResponse(f *testing.F) {
	statuses := make([]TaskStatus, 64)
	for i := range statuses {
		statuses[i] = TaskStatus{ID: uint64(i), State: StateOK}
	}
	addSeeds(f,
		mustMarshal(f, AwaitResponse{Done: true, Tasks: statuses}),
		mustMarshal(f, AwaitResponse{Tasks: []TaskStatus{{ID: 1, State: StateFailed, Error: nasty}, {ID: 2, State: StatePending}}}),
		mustMarshal(f, SubmitResponse{IDs: []uint64{0, 1, 2}, Deduped: true}))
	// The client is where responses are decoded, so the bytes are also
	// served to a real one: through its pooled buffer they must decode to
	// what the codec alone makes of them.
	var body atomic.Pointer[[]byte]
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(*body.Load())
	}))
	f.Cleanup(hs.Close)
	sess := NewClient(hs.URL).Session("s")
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAwaitResponse(t, data)
		checkSubmitResponse(t, data)
		body.Store(&data)
		var want AwaitResponse
		werr := want.parseJSON(data)
		got, err := sess.AwaitOnce(context.Background(), nil, 0)
		if (err == nil) != (werr == nil) || (err == nil && !reflect.DeepEqual(*got, want)) {
			t.Fatalf("client decoded %q as %+v, %v; the codec as %+v, %v", data, got, err, want, werr)
		}
	})
}
