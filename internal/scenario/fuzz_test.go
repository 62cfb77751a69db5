package scenario

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

// FuzzParse exercises the scenario parser and builders against arbitrary
// input: they must never panic, anything that parses must satisfy the
// numeric invariants (finite non-negative quantities, probabilities in
// [0, 1]), and anything that parses and builds must round-trip through
// Encode/Parse.
func FuzzParse(f *testing.F) {
	example, err := Example().Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(example))
	f.Add(`{}`)
	f.Add(`{"network":{"name":"n","ncps":[{"name":"a"}]},"apps":[]}`)
	f.Add(`{"network":{"ncps":[{"name":"a"},{"name":"b"}],"links":[{"name":"l","a":"a","b":"b","bandwidth":5,"directed":true}]}}`)
	f.Add(`{"apps":[{"name":"x","cts":[{"name":"c"}],"qos":{"class":"be"}}]}`)
	// Invalid-number seeds: negative capacity, out-of-range failProb,
	// negative bits, availability above 1, huge exponents.
	f.Add(`{"network":{"ncps":[{"name":"a","capacity":{"cpu":-1}}]}}`)
	f.Add(`{"network":{"ncps":[{"name":"a","failProb":1.5}]}}`)
	f.Add(`{"network":{"ncps":[{"name":"a"},{"name":"b"}],"links":[{"name":"l","a":"a","b":"b","bandwidth":-3}]}}`)
	f.Add(`{"apps":[{"name":"x","cts":[{"name":"c"},{"name":"d"}],"tts":[{"from":"c","to":"d","bits":-1}],"qos":{"class":"be"}}]}`)
	f.Add(`{"apps":[{"name":"x","cts":[{"name":"c"}],"qos":{"class":"gr","minRate":-0.5}}]}`)
	f.Add(`{"apps":[{"name":"x","cts":[{"name":"c"}],"qos":{"class":"be","availability":2}}]}`)
	f.Add(`{"network":{"ncps":[{"name":"a","capacity":{"cpu":1e308}}]}}`)
	f.Fuzz(func(t *testing.T, data string) {
		file, err := Parse([]byte(data))
		if err != nil {
			return
		}
		checkNumericInvariants(t, file)
		net, err := file.BuildNetwork()
		if err != nil {
			return
		}
		if _, err := file.BuildApps(net); err != nil {
			return
		}
		encoded, err := file.Encode()
		if err != nil {
			t.Fatalf("valid scenario failed to encode: %v", err)
		}
		if _, err := Parse(encoded); err != nil {
			t.Fatalf("round-trip parse failed: %v", err)
		}
	})
}

// checkNumericInvariants walks a successfully parsed file and fails if
// any value the validator promises to reject survived.
func checkNumericInvariants(t *testing.T, f *File) {
	t.Helper()
	quantity := func(what string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			t.Fatalf("%s = %v slipped through Parse", what, v)
		}
	}
	prob := func(what string, v float64) {
		if math.IsNaN(v) || v < 0 || v > 1 {
			t.Fatalf("%s = %v slipped through Parse", what, v)
		}
	}
	for _, ncp := range f.Network.NCPs {
		for kind, c := range ncp.Capacity {
			quantity("NCP capacity "+kind, c)
		}
		prob("NCP failProb", ncp.FailProb)
	}
	for _, link := range f.Network.Links {
		quantity("link bandwidth", link.Bandwidth)
		prob("link failProb", link.FailProb)
	}
	for _, app := range f.Apps {
		for _, ct := range app.CTs {
			for kind, r := range ct.Req {
				quantity("CT req "+kind, r)
			}
		}
		for _, tt := range app.TTs {
			quantity("TT bits", tt.Bits)
		}
		quantity("QoS priority", app.QoS.Priority)
		quantity("QoS minRate", app.QoS.MinRate)
		prob("QoS availability", app.QoS.Availability)
		prob("QoS minRateAvailability", app.QoS.MinRateAvailability)
	}
}

// FuzzDecodeApp checks DecodeApp against the strict reflective decode it
// stands in for: for every input, the same value (reflect.DeepEqual) or
// the same error text.
func FuzzDecodeApp(f *testing.F) {
	for _, seed := range decodeSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data string) {
		checkDecodeApp(t, []byte(data))
	})
}

// decodeSeeds are bodies on both sides of the canonical form's edge.
var decodeSeeds = []string{
	`{"name":"a","cts":[{"name":"in","host":"n00"},{"name":"w0","req":{"cpu":12.5}},{"name":"out","host":"n01"}],` +
		`"tts":[{"from":"in","to":"w0","bits":1e-07},{"from":"w0","to":"out","bits":3}],"qos":{"class":"best-effort","priority":2.25}}`,
	`{"name":"g","cts":[],"tts":[],"qos":{"class":"guaranteed-rate","minRate":0.5,"minRateAvailability":0.95,"maxPaths":3}}`,
	` { "name" : "ws" , "cts" : [ { "name" : "c" , "req" : { } } ] } ` + "\n\t\r",
	// Escapes, \u surrogates (paired, lone, reversed) and invalid UTF-8.
	`{"name":"a\"b","cts":[{"name":"\u00e9"}]}`,
	`{"name":"\ud83d\ude00"}`,
	`{"name":"\ud83d"}`,
	`{"name":"\ude00\ud83d"}`,
	"{\"name\":\"\xff\xfe\"}",
	"{\"name\":\"\xed\xa0\x80\"}",
	"{\"cts\":[{\"name\":\"c\",\"req\":{\"\xc3\":1}}]}",
	"{\"name\":\"caf\xc3\xa9\"}",
	"{\"name\":\"tab\there\"}",
	// null, whole body and per field.
	`null`,
	`{"name":null}`,
	`{"cts":null,"tts":null,"qos":null}`,
	`{"cts":[null,{"name":"c","req":null,"host":null}]}`,
	`{"cts":[{"name":"c","req":{"cpu":null}}]}`,
	`{"tts":[{"from":"a","to":"b","bits":null}],"qos":{"class":"be","maxPaths":null}}`,
	// Case-folded and duplicated keys, unknown keys.
	`{"Name":"a","CTS":[]}`,
	`{"qos":{"Class":"be","MINRATE":1}}`,
	`{"name":"a","name":"b"}`,
	`{"cts":[{"name":"a","req":{"cpu":1}}],"cts":[{"name":"b"}]}`,
	`{"cts":[{"name":"a","req":{"cpu":1},"req":{"mem":2}}]}`,
	`{"cts":[{"name":"a","req":{"cpu":1,"cpu":2}}]}`,
	`{"qos":{"class":"be","priority":1,"priority":2}}`,
	`{"name":"a","extra":1}`,
	// Trailing data after the object.
	`{"name":"a"} {"name":"b"}`,
	`{"name":"a"}x`,
	`{"name":"a"}}`,
	// Numbers: out of range, non-integer maxPaths, JSON-invalid forms.
	`{"tts":[{"from":"a","to":"b","bits":1e400}]}`,
	`{"tts":[{"from":"a","to":"b","bits":-1e-400}]}`,
	`{"qos":{"class":"gr","maxPaths":3.0}}`,
	`{"qos":{"class":"gr","maxPaths":3e0}}`,
	`{"qos":{"class":"gr","maxPaths":-0}}`,
	`{"qos":{"class":"gr","maxPaths":99999999999999999999}}`,
	`{"qos":{"priority":01}}`,
	`{"qos":{"priority":.5}}`,
	`{"qos":{"priority":1.}}`,
	`{"qos":{"priority":+1}}`,
	`{"qos":{"priority":1e}}`,
	`{"qos":{"priority":-0.0E+00}}`,
	`{"qos":{"priority":"1"}}`,
	`{"qos":{"priority":true}}`,
	// Empty and non-object bodies, truncations.
	``,
	`   `,
	`[]`,
	`{}`,
	`"name"`,
	`{"name":"a"`,
	`{"name":"a",}`,
	`{"cts":[{"name":"c"},]}`,
	`{"cts":[{"name":"c"}`,
	`{"name"}`,
}

// decodeReflective is the reference DecodeApp answers for: the strict
// decode the server's other handlers use.
func decodeReflective(data []byte) (AppSpec, error) {
	var spec AppSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	err := dec.Decode(&spec)
	return spec, err
}

// checkDecodeApp fails unless DecodeApp and the reference agree on data.
func checkDecodeApp(t *testing.T, data []byte) {
	t.Helper()
	want, wantErr := decodeReflective(data)
	got, err := DecodeApp(data)
	switch {
	case wantErr != nil && (err == nil || err.Error() != wantErr.Error()):
		t.Fatalf("DecodeApp(%q) error = %v, want %v", data, err, wantErr)
	case wantErr == nil && err != nil:
		t.Fatalf("DecodeApp(%q) error = %v, want %+v", data, err, want)
	case wantErr == nil && !reflect.DeepEqual(got, want):
		t.Fatalf("DecodeApp(%q) = %+v, want %+v", data, got, want)
	}
}
