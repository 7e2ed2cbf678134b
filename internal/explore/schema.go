package explore

import (
	_ "embed"

	"repro/internal/obs"
)

// The frontier artifact schema ships inside the binary so arlexplore,
// arlmetrics and the cmd/ wiring tests validate against exactly the
// format Encode writes. TestFrontierMatchesSchema keeps writer and
// schema in sync.
//
//go:embed frontier.schema.json
var frontierSchema []byte

// FrontierSchemaJSON returns the embedded arl-frontier/v1 JSON schema.
func FrontierSchemaJSON() []byte {
	return append([]byte(nil), frontierSchema...)
}

// ValidateFrontier checks a serialized frontier artifact against the
// embedded schema.
func ValidateFrontier(doc []byte) error {
	return obs.ValidateJSON(frontierSchema, doc)
}
