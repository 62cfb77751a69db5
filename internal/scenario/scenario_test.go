package scenario

import (
	"strings"
	"testing"

	"sparcle/internal/core"
	"sparcle/internal/resource"
)

func TestExampleRoundTrip(t *testing.T) {
	f := Example()
	data, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed.Apps) != 1 || parsed.Apps[0].Name != "face-detection" {
		t.Fatalf("round trip lost apps: %+v", parsed.Apps)
	}
	if len(parsed.Network.NCPs) != 7 || len(parsed.Network.Links) != 8 {
		t.Fatalf("round trip lost network: %d NCPs %d links", len(parsed.Network.NCPs), len(parsed.Network.Links))
	}
}

func TestExampleSchedules(t *testing.T) {
	f := Example()
	net, err := f.BuildNetwork()
	if err != nil {
		t.Fatal(err)
	}
	apps, err := f.BuildApps(net)
	if err != nil {
		t.Fatal(err)
	}
	s := core.New(net)
	pa, err := s.Submit(apps[0])
	if err != nil {
		t.Fatal(err)
	}
	// This is the 10 Mbps testbed: the known optimal single path is the
	// cloud at 0.4018 images/s; SPARCLE's aggregate must be at least that.
	if got := pa.TotalRate(); got < 0.40 {
		t.Fatalf("rate = %v, want >= 0.40", got)
	}
}

func TestBuildNetworkValidation(t *testing.T) {
	base := Example()
	t.Run("duplicate ncp", func(t *testing.T) {
		f := *base
		f.Network.NCPs = append(f.Network.NCPs, NCPSpec{Name: "ncp1"})
		if _, err := f.BuildNetwork(); err == nil {
			t.Fatal("want duplicate error")
		}
	})
	t.Run("unknown endpoint", func(t *testing.T) {
		f := *base
		f.Network.Links = append([]LinkSpec(nil), base.Network.Links...)
		f.Network.Links = append(f.Network.Links, LinkSpec{Name: "x", A: "ncp1", B: "nope", Bandwidth: 1})
		if _, err := f.BuildNetwork(); err == nil {
			t.Fatal("want unknown NCP error")
		}
	})
	t.Run("empty name", func(t *testing.T) {
		f := *base
		f.Network.NCPs = append([]NCPSpec(nil), base.Network.NCPs...)
		f.Network.NCPs = append(f.Network.NCPs, NCPSpec{})
		if _, err := f.BuildNetwork(); err == nil {
			t.Fatal("want empty-name error")
		}
	})
}

func TestBuildAppsValidation(t *testing.T) {
	net, err := Example().BuildNetwork()
	if err != nil {
		t.Fatal(err)
	}
	valid := Example().Apps[0]

	mutate := func(fn func(*AppSpec)) error {
		spec := valid
		spec.CTs = append([]CTSpec(nil), valid.CTs...)
		spec.TTs = append([]TTSpec(nil), valid.TTs...)
		fn(&spec)
		_, err := BuildApp(spec, net)
		return err
	}

	if err := mutate(func(s *AppSpec) { s.CTs[0].Host = "nope" }); err == nil {
		t.Fatal("unknown pin host must error")
	}
	if err := mutate(func(s *AppSpec) { s.TTs[0].From = "nope" }); err == nil {
		t.Fatal("unknown TT endpoint must error")
	}
	if err := mutate(func(s *AppSpec) { s.CTs[1].Name = "camera" }); err == nil {
		t.Fatal("duplicate CT name must error")
	}
	if err := mutate(func(s *AppSpec) { s.QoS.Class = "super" }); err == nil {
		t.Fatal("unknown class must error")
	}
	if err := mutate(func(s *AppSpec) { s.CTs[0].Name = "" }); err == nil {
		t.Fatal("empty CT name must error")
	}
}

func TestQoSDefaults(t *testing.T) {
	qos, err := buildQoS("a", QoSSpec{Class: "be"})
	if err != nil {
		t.Fatal(err)
	}
	if qos.Class != core.BestEffort || qos.Priority != 1 {
		t.Fatalf("BE defaults wrong: %+v", qos)
	}
	qos, err = buildQoS("a", QoSSpec{Class: "GR", MinRate: 2})
	if err != nil {
		t.Fatal(err)
	}
	if qos.Class != core.GuaranteedRate || qos.MinRate != 2 {
		t.Fatalf("GR parse wrong: %+v", qos)
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	if _, err := Parse([]byte(`{"network": {}, "bogus": 1}`)); err == nil {
		t.Fatal("unknown fields must be rejected")
	}
	if _, err := Parse([]byte(`{invalid`)); err == nil {
		t.Fatal("invalid JSON must be rejected")
	}
}

func TestVector(t *testing.T) {
	if vector(nil) != nil {
		t.Fatal("nil map must give nil vector")
	}
	v := vector(map[string]float64{"cpu": 5})
	if v[resource.CPU] != 5 {
		t.Fatalf("vector = %v", v)
	}
}

func TestExampleEncodesStable(t *testing.T) {
	data, err := Example().Encode()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"cloud-field"`, `"face-detection"`, `"raw-images"`, `"best-effort"`} {
		if !strings.Contains(string(data), want) {
			t.Fatalf("encoded example missing %s", want)
		}
	}
}

// TestParseRejectsInvalidNumbers checks the precise validation errors for
// each numerically invalid field class.
func TestParseRejectsInvalidNumbers(t *testing.T) {
	cases := []struct {
		name, doc, want string
	}{
		{"negative capacity",
			`{"network":{"ncps":[{"name":"a","capacity":{"cpu":-5}}]}}`,
			`NCP "a" capacity "cpu"`},
		{"failProb above one",
			`{"network":{"ncps":[{"name":"a","failProb":1.01}]}}`,
			`NCP "a" failProb`},
		{"negative bandwidth",
			`{"network":{"ncps":[{"name":"a"},{"name":"b"}],"links":[{"name":"l","a":"a","b":"b","bandwidth":-1}]}}`,
			`link "l" bandwidth`},
		{"link failProb negative",
			`{"network":{"ncps":[{"name":"a"},{"name":"b"}],"links":[{"name":"l","a":"a","b":"b","bandwidth":1,"failProb":-0.2}]}}`,
			`link "l" failProb`},
		{"negative CT requirement",
			`{"apps":[{"name":"x","cts":[{"name":"c","req":{"cpu":-10}}],"qos":{"class":"be"}}]}`,
			`app "x" CT "c" requirement "cpu"`},
		{"negative bits",
			`{"apps":[{"name":"x","cts":[{"name":"c"},{"name":"d"}],"tts":[{"from":"c","to":"d","bits":-1}],"qos":{"class":"be"}}]}`,
			`app "x" TT "c"->"d" bits`},
		{"negative priority",
			`{"apps":[{"name":"x","cts":[{"name":"c"}],"qos":{"class":"be","priority":-1}}]}`,
			`app "x" QoS priority`},
		{"negative minRate",
			`{"apps":[{"name":"x","cts":[{"name":"c"}],"qos":{"class":"gr","minRate":-0.1}}]}`,
			`app "x" QoS minRate`},
		{"availability above one",
			`{"apps":[{"name":"x","cts":[{"name":"c"}],"qos":{"class":"be","availability":1.5}}]}`,
			`app "x" QoS availability`},
		{"minRateAvailability above one",
			`{"apps":[{"name":"x","cts":[{"name":"c"}],"qos":{"class":"gr","minRateAvailability":2}}]}`,
			`app "x" QoS minRateAvailability`},
		{"negative maxPaths",
			`{"apps":[{"name":"x","cts":[{"name":"c"}],"qos":{"class":"be","maxPaths":-2}}]}`,
			`app "x" QoS maxPaths`},
		{"maxPaths above the analysis cap",
			`{"apps":[{"name":"x","cts":[{"name":"c"}],"qos":{"class":"be","maxPaths":9}}]}`,
			`app "x" QoS maxPaths is 9, want 0 to 8`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.doc))
			if err == nil {
				t.Fatalf("Parse accepted %s", tc.doc)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name the field (want substring %q)", err, tc.want)
			}
		})
	}
}

// TestBuildAppValidatesDirectSpecs: specs that bypass Parse (the HTTP
// submit path) are still validated by BuildApp.
func TestBuildAppValidatesDirectSpecs(t *testing.T) {
	f, err := Parse([]byte(`{"network":{"ncps":[{"name":"a"}]}}`))
	if err != nil {
		t.Fatal(err)
	}
	net, err := f.BuildNetwork()
	if err != nil {
		t.Fatal(err)
	}
	spec := AppSpec{
		Name: "bad",
		CTs:  []CTSpec{{Name: "c", Req: map[string]float64{"cpu": -1}}},
		QoS:  QoSSpec{Class: "be"},
	}
	if _, err := BuildApp(spec, net); err == nil {
		t.Fatal("BuildApp accepted a negative requirement")
	}
}
