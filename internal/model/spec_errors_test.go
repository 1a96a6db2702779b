package model_test

// Table-driven error-path tests for the spec parsers and graph validation:
// every malformed input is paired with the exact failure message fragment it
// must produce, so error texts — which the CLI surfaces verbatim — stay
// stable and specific.

import (
	"strings"
	"testing"

	"sunfloor3d/internal/model"
)

func TestSpecErrorMessages(t *testing.T) {
	const goodCores = "core a 1 1 0 0 0\ncore b 1 1 2 0 1\n"
	cases := []struct {
		name    string
		cores   string
		comm    string
		wantErr string
	}{
		{
			name:    "duplicate core names",
			cores:   "core a 1 1 0 0 0\ncore a 1 1 2 0 0\n",
			comm:    "flow a a 100 0 request\n",
			wantErr: `duplicate core name "a"`,
		},
		{
			name:    "unknown flow source",
			cores:   goodCores,
			comm:    "flow ghost b 100 0 request\n",
			wantErr: `comm spec line 1: unknown source core "ghost"`,
		},
		{
			name:    "unknown flow destination",
			cores:   goodCores,
			comm:    "flow a ghost 100 0 request\n",
			wantErr: `comm spec line 1: unknown destination core "ghost"`,
		},
		{
			name:    "negative bandwidth",
			cores:   goodCores,
			comm:    "flow a b -100 0 request\n",
			wantErr: `flow 0 ("a" -> "b") has non-positive bandwidth -100`,
		},
		{
			name:    "zero bandwidth",
			cores:   goodCores,
			comm:    "flow a b 0 0 request\n",
			wantErr: "non-positive bandwidth 0",
		},
		{
			name:    "NaN bandwidth",
			cores:   goodCores,
			comm:    "flow a b NaN 0 request\n",
			wantErr: `flow 0 ("a" -> "b") has non-finite bandwidth NaN`,
		},
		{
			name:    "infinite bandwidth",
			cores:   goodCores,
			comm:    "flow a b Inf 0 request\n",
			wantErr: `flow 0 ("a" -> "b") has non-finite bandwidth +Inf`,
		},
		{
			name:    "bandwidth above the ceiling",
			cores:   goodCores,
			comm:    "flow a b 1e308 0 request\n",
			wantErr: `flow 0 ("a" -> "b") has bandwidth 1e+308 above the 1e+09 MB/s ceiling`,
		},
		{
			name:    "bad layer index",
			cores:   "core a 1 1 0 0 first\n",
			comm:    "",
			wantErr: `core spec line 1: bad layer "first"`,
		},
		{
			name:    "negative layer index",
			cores:   "core a 1 1 0 0 -2\ncore b 1 1 0 0 0\n",
			comm:    "flow a b 10 0 request\n",
			wantErr: `core "a" has negative layer -2`,
		},
		{
			name:    "non-finite core size",
			cores:   "core a Inf 1 0 0 0\ncore b 1 1 0 0 0\n",
			comm:    "flow a b 10 0 request\n",
			wantErr: `core "a" has a non-finite geometry value`,
		},
		{
			name:    "negative latency",
			cores:   goodCores,
			comm:    "flow a b 100 -3 request\n",
			wantErr: "flow 0 has negative latency constraint",
		},
		{
			name:    "infinite latency",
			cores:   goodCores,
			comm:    "flow a b 100 Inf request\n",
			wantErr: "flow 0 has non-finite latency constraint +Inf",
		},
		{
			name:    "self loop",
			cores:   goodCores,
			comm:    "flow a a 100 0 request\n",
			wantErr: `flow 0 is a self loop on core "a"`,
		},
		{
			name:    "bad message type",
			cores:   goodCores,
			comm:    "flow a b 100 0 broadcast\n",
			wantErr: `comm spec line 1: bad message type "broadcast"`,
		},
		{
			name:    "wrong core keyword",
			cores:   "switch a 1 1 0 0 0\n",
			comm:    "",
			wantErr: `core spec line 1: expected 'core', got "switch"`,
		},
		{
			name:    "core field count",
			cores:   "core a 1 1\n",
			comm:    "",
			wantErr: "core spec line 1: expected 7 or 8 fields, got 4",
		},
		{
			name:    "comm field count",
			cores:   goodCores,
			comm:    "flow a b 100\n",
			wantErr: "comm spec line 1: expected 6 fields, got 4",
		},
		{
			name:    "bad mem marker",
			cores:   "core a 1 1 0 0 0 memory\n",
			comm:    "",
			wantErr: `core spec line 1: unexpected trailing field "memory"`,
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			_, err := model.LoadDesign(strings.NewReader(tc.cores), strings.NewReader(tc.comm))
			if err == nil {
				t.Fatalf("LoadDesign succeeded, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not contain %q", err.Error(), tc.wantErr)
			}
		})
	}
}
