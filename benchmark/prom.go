package main

import (
	"bufio"
	"fmt"
	"net/http"
	"strconv"
	"strings"
)

// promSample is one scrape of a server's GET /metrics: every series of
// the Prometheus text exposition keyed by its full "name{labels}" string.
type promSample map[string]float64

func scrape(hc *http.Client, base string) (promSample, error) {
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics: %d", base, resp.StatusCode)
	}
	out := promSample{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sum adds every series of the family name, across label sets. Histogram
// parts are their own families (name_sum, name_count, name_bucket).
func (p promSample) sum(name string) float64 {
	total := 0.0
	for k, v := range p {
		if k == name || strings.HasPrefix(k, name+"{") {
			total += v
		}
	}
	return total
}

// max is the largest series of the family, 0 if there is none.
func (p promSample) max(name string) float64 {
	best := 0.0
	for k, v := range p {
		if (k == name || strings.HasPrefix(k, name+"{")) && v > best {
			best = v
		}
	}
	return best
}

// sub returns after-before per series, so counters read as the work done
// between two scrapes; gauges should be read from the later sample.
func (p promSample) sub(before promSample) promSample {
	out := promSample{}
	for k, v := range p {
		out[k] = v - before[k]
	}
	return out
}
