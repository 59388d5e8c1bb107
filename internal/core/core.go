// Package core is the orchestration layer tying the mechanism packages
// into a deployable collection pipeline: a task-generic sharded
// aggregator, a registry of named collections, checkpoint persistence,
// and an HTTP collection service in the style of the deployed systems
// (clients POST privatized reports; analysts read estimates).
//
// The layer is written against task.Aggregator (internal/task) only:
// which task family a collection serves — frequency oracles, numeric
// means, private sketches — is a configuration tag resolved through
// the task registry, so new mechanism families plug in as adapter
// packages without touching this one. The frequency wire format and
// oracle registry live in internal/task/freqtask; this file keeps the
// (mechanism, ε, domain) names the binaries and the load harness
// configure frequency surveys with.
//
// Only privatized data ever crosses the client boundary — the Client
// type runs the randomization locally and exposes no raw-value
// transport, which is the entire point of the local model.
package core

import (
	"fmt"

	"repro/internal/freq"
	"repro/internal/ldprand"
	"repro/internal/task"
	"repro/internal/task/freqtask"
)

// PrivacyParams is the user-facing privacy configuration of a
// frequency survey.
type PrivacyParams struct {
	Epsilon float64 `json:"epsilon"`
	Domain  int     `json:"domain"`
}

// Mechanism names accepted by the frequency oracle registry,
// re-exported from freqtask.
const (
	MechanismGRR = freqtask.MechanismGRR
	MechanismSUE = freqtask.MechanismSUE
	MechanismOUE = freqtask.MechanismOUE
	MechanismSHE = freqtask.MechanismSHE
	MechanismTHE = freqtask.MechanismTHE
	MechanismBLH = freqtask.MechanismBLH
	MechanismOLH = freqtask.MechanismOLH
	MechanismHRR = freqtask.MechanismHRR
	MechanismSS  = freqtask.MechanismSS
)

// FreqTaskConfig is the task configuration of a frequency survey, the
// bridge from the legacy (mechanism, ε, domain) surface to the
// task-generic stack.
func FreqTaskConfig(mechanism string, p PrivacyParams) task.Config {
	return task.Config{Task: task.TypeFreq, Mechanism: mechanism, Epsilon: p.Epsilon, Domain: p.Domain}
}

// Client is the user-side handle of a frequency survey: it owns a
// local oracle instance used only for its client half.
type Client struct {
	oracle freq.Oracle
	params PrivacyParams
}

// NewClient returns a reporting client for the named mechanism. A nil
// source selects crypto/rand (the production configuration).
func NewClient(mechanism string, p PrivacyParams, src ldprand.Source) (*Client, error) {
	o, err := freqtask.NewOracle(mechanism, p.Epsilon, p.Domain, src)
	if err != nil {
		return nil, err
	}
	return &Client{oracle: o, params: p}, nil
}

// Report privatizes one value into a wire envelope.
func (c *Client) Report(v int) (freqtask.Envelope, error) {
	if v < 0 || v >= c.params.Domain {
		return freqtask.Envelope{}, fmt.Errorf("core: value %d outside domain [0,%d)", v, c.params.Domain)
	}
	return freqtask.Privatize(c.oracle, v)
}

// ReportBinary privatizes one value into a binary wire envelope, the
// counterpart of Report for binary-negotiated collections.
func (c *Client) ReportBinary(v int) ([]byte, error) {
	if v < 0 || v >= c.params.Domain {
		return nil, fmt.Errorf("core: value %d outside domain [0,%d)", v, c.params.Domain)
	}
	return freqtask.PrivatizeBinary(c.oracle, v)
}

// ReportBatch privatizes a slice of values into wire envelopes, the
// payload of one POST /report/batch. Each value is randomized
// independently, exactly as per-value Report calls would; batching
// changes only the transport framing, never the privacy guarantee.
func (c *Client) ReportBatch(values []int) ([]freqtask.Envelope, error) {
	out := make([]freqtask.Envelope, 0, len(values))
	for i, v := range values {
		env, err := c.Report(v)
		if err != nil {
			return nil, fmt.Errorf("core: batch value %d: %w", i, err)
		}
		out = append(out, env)
	}
	return out, nil
}

// Mechanism returns the client's mechanism name.
func (c *Client) Mechanism() string { return c.oracle.Name() }

// Params returns the client's privacy parameters.
func (c *Client) Params() PrivacyParams { return c.params }
