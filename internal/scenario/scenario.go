// Package scenario defines the JSON scenario files consumed by the
// sparcle and sparcle-sim commands: a dispersed computing network plus a
// list of stream processing applications with their QoE requests. It
// mirrors the experiment scenario files of the paper's Mininet emulator
// ("our emulator first reads the experiment scenario file describing NCPs
// and their CPU capacities, links, and their bandwidths, routing paths,
// and the CT/TT requirements", §V.A).
package scenario

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"sparcle/internal/avail"
	"sparcle/internal/core"
	"sparcle/internal/network"
	"sparcle/internal/placement"
	"sparcle/internal/resource"
	"sparcle/internal/taskgraph"
)

// File is the root of a scenario document.
type File struct {
	Network NetworkSpec `json:"network"`
	Apps    []AppSpec   `json:"apps"`
}

// NetworkSpec describes the computing network.
type NetworkSpec struct {
	Name  string     `json:"name"`
	NCPs  []NCPSpec  `json:"ncps"`
	Links []LinkSpec `json:"links"`
}

// NCPSpec describes one computing node.
type NCPSpec struct {
	Name string `json:"name"`
	// Capacity maps resource kinds (e.g. "cpu", "memory") to capacities
	// per second.
	Capacity map[string]float64 `json:"capacity"`
	FailProb float64            `json:"failProb,omitempty"`
}

// LinkSpec describes one link, endpoints by NCP name. Links are
// undirected (bandwidth shared in both directions) unless Directed is
// set, in which case the link is usable only from A to B.
type LinkSpec struct {
	Name      string  `json:"name"`
	A         string  `json:"a"`
	B         string  `json:"b"`
	Bandwidth float64 `json:"bandwidth"`
	FailProb  float64 `json:"failProb,omitempty"`
	Directed  bool    `json:"directed,omitempty"`
}

// AppSpec describes one stream processing application.
type AppSpec struct {
	Name string   `json:"name"`
	CTs  []CTSpec `json:"cts"`
	TTs  []TTSpec `json:"tts"`
	QoS  QoSSpec  `json:"qos"`
}

// CTSpec describes a computation task; Host pins it to an NCP by name
// (required for sources and sinks).
type CTSpec struct {
	Name string             `json:"name"`
	Req  map[string]float64 `json:"req,omitempty"`
	Host string             `json:"host,omitempty"`
}

// TTSpec describes a transport task between two CTs by name.
type TTSpec struct {
	Name string  `json:"name,omitempty"`
	From string  `json:"from"`
	To   string  `json:"to"`
	Bits float64 `json:"bits"`
}

// QoSSpec describes the requested QoE.
type QoSSpec struct {
	// Class is "best-effort" or "guaranteed-rate".
	Class               string  `json:"class"`
	Priority            float64 `json:"priority,omitempty"`
	Availability        float64 `json:"availability,omitempty"`
	MinRate             float64 `json:"minRate,omitempty"`
	MinRateAvailability float64 `json:"minRateAvailability,omitempty"`
	MaxPaths            int     `json:"maxPaths,omitempty"`
}

// Parse decodes a scenario document, rejecting unknown fields and
// numerically invalid inputs: NaN or negative capacities, bandwidths,
// rates and bits, and failure probabilities or availabilities outside
// [0, 1]. A scenario that parses is safe to build and schedule.
func Parse(data []byte) (*File, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var f File
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("scenario: parse: %w", err)
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return &f, nil
}

// Validate checks every numeric field of the scenario: quantities
// (capacities, bandwidths, requirements, bits, rates, priorities) must be
// finite and non-negative, probabilities must lie in [0, 1]. The builders
// run the same checks, so a File constructed in code is validated too.
func (f *File) Validate() error {
	for _, ncp := range f.Network.NCPs {
		if err := validateNCP(ncp); err != nil {
			return err
		}
	}
	for _, link := range f.Network.Links {
		if err := validateLink(link); err != nil {
			return err
		}
	}
	for _, app := range f.Apps {
		if err := validateApp(app); err != nil {
			return err
		}
	}
	return nil
}

// checkQuantity rejects NaN, infinite and negative values.
func checkQuantity(v float64, format string, parts ...string) error {
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return fmt.Errorf("scenario: %s is %v, want a finite non-negative number", label(format, parts), v)
	}
	return nil
}

// checkProbability rejects values outside [0, 1] (and NaN), labelled as
// checkQuantity does.
func checkProbability(v float64, format string, parts ...string) error {
	if math.IsNaN(v) || v < 0 || v > 1 {
		return fmt.Errorf("scenario: %s is %v, want a probability in [0, 1]", label(format, parts), v)
	}
	return nil
}

// label formats a rejected value's name from its %q parts. The checks
// call it only on failure, so a valid spec formats nothing.
func label(format string, parts []string) string {
	args := make([]any, len(parts))
	for i, p := range parts {
		args[i] = p
	}
	return fmt.Sprintf(format, args...)
}

func validateNCP(spec NCPSpec) error {
	for kind, cap := range spec.Capacity {
		if err := checkQuantity(cap, "NCP %q capacity %q", spec.Name, kind); err != nil {
			return err
		}
	}
	return checkProbability(spec.FailProb, "NCP %q failProb", spec.Name)
}

func validateLink(spec LinkSpec) error {
	if err := checkQuantity(spec.Bandwidth, "link %q bandwidth", spec.Name); err != nil {
		return err
	}
	return checkProbability(spec.FailProb, "link %q failProb", spec.Name)
}

// validateApp range-checks an app spec's numeric fields.
func validateApp(spec AppSpec) error {
	for _, ct := range spec.CTs {
		for kind, req := range ct.Req {
			if err := checkQuantity(req, "app %q CT %q requirement %q", spec.Name, ct.Name, kind); err != nil {
				return err
			}
		}
	}
	for _, tt := range spec.TTs {
		if err := checkQuantity(tt.Bits, "app %q TT %q->%q bits", spec.Name, tt.From, tt.To); err != nil {
			return err
		}
	}
	q := spec.QoS
	if err := checkQuantity(q.Priority, "app %q QoS priority", spec.Name); err != nil {
		return err
	}
	if err := checkQuantity(q.MinRate, "app %q QoS minRate", spec.Name); err != nil {
		return err
	}
	if err := checkProbability(q.Availability, "app %q QoS availability", spec.Name); err != nil {
		return err
	}
	if err := checkProbability(q.MinRateAvailability, "app %q QoS minRateAvailability", spec.Name); err != nil {
		return err
	}
	if q.MaxPaths < 0 || q.MaxPaths > avail.MaxPaths {
		return fmt.Errorf("scenario: app %q QoS maxPaths is %d, want 0 to %d", spec.Name, q.MaxPaths, avail.MaxPaths)
	}
	return nil
}

// Encode renders the scenario as indented JSON.
func (f *File) Encode() ([]byte, error) {
	return json.MarshalIndent(f, "", "  ")
}

// BuildNetwork constructs the computing network.
func (f *File) BuildNetwork() (*network.Network, error) {
	b := network.NewBuilder(f.Network.Name)
	ids := map[string]network.NCPID{}
	for _, spec := range f.Network.NCPs {
		if spec.Name == "" {
			return nil, fmt.Errorf("scenario: NCP with empty name")
		}
		if _, dup := ids[spec.Name]; dup {
			return nil, fmt.Errorf("scenario: duplicate NCP name %q", spec.Name)
		}
		if err := validateNCP(spec); err != nil {
			return nil, err
		}
		ids[spec.Name] = b.AddNCP(spec.Name, vector(spec.Capacity), spec.FailProb)
	}
	for _, spec := range f.Network.Links {
		if err := validateLink(spec); err != nil {
			return nil, err
		}
		a, ok := ids[spec.A]
		if !ok {
			return nil, fmt.Errorf("scenario: link %q references unknown NCP %q", spec.Name, spec.A)
		}
		c, ok := ids[spec.B]
		if !ok {
			return nil, fmt.Errorf("scenario: link %q references unknown NCP %q", spec.Name, spec.B)
		}
		if spec.Directed {
			b.AddDirectedLink(spec.Name, a, c, spec.Bandwidth, spec.FailProb)
		} else {
			b.AddLink(spec.Name, a, c, spec.Bandwidth, spec.FailProb)
		}
	}
	return b.Build()
}

// BuildApps constructs the applications against an already built network.
func (f *File) BuildApps(net *network.Network) ([]core.App, error) {
	apps := make([]core.App, 0, len(f.Apps))
	for _, spec := range f.Apps {
		app, err := BuildApp(spec, net)
		if err != nil {
			return nil, err
		}
		apps = append(apps, app)
	}
	return apps, nil
}

// BuildApp constructs one application against an already built network.
// Specs arriving outside Parse (e.g. POST /apps bodies) get the same
// numeric validation here.
func BuildApp(spec AppSpec, net *network.Network) (core.App, error) {
	if err := validateApp(spec); err != nil {
		return core.App{}, err
	}
	b := taskgraph.NewBuilder(spec.Name)
	ctIDs := map[string]taskgraph.CTID{}
	pins := placement.Pins{}
	for _, ct := range spec.CTs {
		if ct.Name == "" {
			return core.App{}, fmt.Errorf("scenario: app %q: CT with empty name", spec.Name)
		}
		if _, dup := ctIDs[ct.Name]; dup {
			return core.App{}, fmt.Errorf("scenario: app %q: duplicate CT name %q", spec.Name, ct.Name)
		}
		id := b.AddCT(ct.Name, vector(ct.Req))
		ctIDs[ct.Name] = id
		if ct.Host != "" {
			host, ok := net.NCPIDByName(ct.Host)
			if !ok {
				return core.App{}, fmt.Errorf("scenario: app %q: CT %q pinned to unknown NCP %q", spec.Name, ct.Name, ct.Host)
			}
			pins[id] = host
		}
	}
	for i, tt := range spec.TTs {
		from, ok := ctIDs[tt.From]
		if !ok {
			return core.App{}, fmt.Errorf("scenario: app %q: TT references unknown CT %q", spec.Name, tt.From)
		}
		to, ok := ctIDs[tt.To]
		if !ok {
			return core.App{}, fmt.Errorf("scenario: app %q: TT references unknown CT %q", spec.Name, tt.To)
		}
		name := tt.Name
		if name == "" {
			name = fmt.Sprintf("tt%d", i)
		}
		b.AddTT(name, from, to, tt.Bits)
	}
	g, err := b.Build()
	if err != nil {
		return core.App{}, err
	}
	qos, err := buildQoS(spec.Name, spec.QoS)
	if err != nil {
		return core.App{}, err
	}
	return core.App{Name: spec.Name, Graph: g, Pins: pins, QoS: qos}, nil
}

func buildQoS(app string, spec QoSSpec) (core.QoS, error) {
	qos := core.QoS{
		Priority:            spec.Priority,
		Availability:        spec.Availability,
		MinRate:             spec.MinRate,
		MinRateAvailability: spec.MinRateAvailability,
		MaxPaths:            spec.MaxPaths,
	}
	switch strings.ToLower(spec.Class) {
	case "best-effort", "be":
		qos.Class = core.BestEffort
		if qos.Priority == 0 {
			qos.Priority = 1
		}
	case "guaranteed-rate", "gr":
		qos.Class = core.GuaranteedRate
	default:
		return core.QoS{}, fmt.Errorf("scenario: app %q: unknown QoS class %q (want best-effort or guaranteed-rate)", app, spec.Class)
	}
	return qos, nil
}

func vector(m map[string]float64) resource.Vector {
	if len(m) == 0 {
		return nil
	}
	v := resource.Vector{}
	for k, a := range m {
		v[resource.Kind(k)] = a
	}
	return v
}

// Example returns a small ready-to-run scenario: the Table I/II face
// detection deployment at 10 Mbps field bandwidth with one best-effort
// application, as emitted by `sparcle -example`.
func Example() *File {
	fieldCap := map[string]float64{"cpu": 3000}
	f := &File{
		Network: NetworkSpec{
			Name: "cloud-field",
			NCPs: []NCPSpec{
				{Name: "ncp1", Capacity: fieldCap},
				{Name: "ncp2", Capacity: fieldCap},
				{Name: "ncp3", Capacity: fieldCap},
				{Name: "ncp4", Capacity: fieldCap},
				{Name: "ncp5", Capacity: fieldCap},
				{Name: "ncp6", Capacity: fieldCap},
				{Name: "cloud", Capacity: map[string]float64{"cpu": 15200}},
			},
			Links: []LinkSpec{
				{Name: "f1-5", A: "ncp1", B: "ncp5", Bandwidth: 10},
				{Name: "f2-5", A: "ncp2", B: "ncp5", Bandwidth: 10},
				{Name: "f3-6", A: "ncp3", B: "ncp6", Bandwidth: 10},
				{Name: "f4-6", A: "ncp4", B: "ncp6", Bandwidth: 10},
				{Name: "f1-2", A: "ncp1", B: "ncp2", Bandwidth: 10},
				{Name: "f3-4", A: "ncp3", B: "ncp4", Bandwidth: 10},
				{Name: "f5-6", A: "ncp5", B: "ncp6", Bandwidth: 10},
				{Name: "cloud-up", A: "ncp6", B: "cloud", Bandwidth: 100},
			},
		},
		Apps: []AppSpec{{
			Name: "face-detection",
			CTs: []CTSpec{
				{Name: "camera", Host: "ncp1"},
				{Name: "resize", Req: map[string]float64{"cpu": 9880}},
				{Name: "denoise", Req: map[string]float64{"cpu": 12800}},
				{Name: "edge-detection", Req: map[string]float64{"cpu": 4826}},
				{Name: "face-detection", Req: map[string]float64{"cpu": 5658}},
				{Name: "consumer", Host: "ncp1"},
			},
			TTs: []TTSpec{
				{Name: "raw-images", From: "camera", To: "resize", Bits: 24.8},
				{Name: "resized", From: "resize", To: "denoise", Bits: 1.456},
				{Name: "denoised", From: "denoise", To: "edge-detection", Bits: 1.16},
				{Name: "edge-maps", From: "edge-detection", To: "face-detection", Bits: 1.504},
				{Name: "faces", From: "face-detection", To: "consumer", Bits: 0.088},
			},
			QoS: QoSSpec{Class: "best-effort", Priority: 1},
		}},
	}
	return f
}
