package obs

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"regexp"
	"sort"
	"strings"
)

// sortedKeys returns m's keys in ascending order, pinning every
// first-error-wins walk below to a deterministic visit order.
func sortedKeys(m map[string]any) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// The metrics artifact schema ships inside the binary so arlmetrics and
// the cmd/ wiring tests validate against exactly the format this package
// writes. The checked-in file is the contract; TestArtifactMatchesSchema
// keeps writer and schema in sync.
//
//go:embed metrics.schema.json
var metricsSchema []byte

// MetricsSchemaJSON returns the embedded metrics artifact JSON schema.
func MetricsSchemaJSON() []byte {
	return append([]byte(nil), metricsSchema...)
}

// ValidateMetrics checks a serialized metrics artifact against the
// embedded schema.
func ValidateMetrics(doc []byte) error {
	return ValidateJSON(metricsSchema, doc)
}

// ValidateJSON validates doc against schema, a JSON Schema using the
// subset of draft-07 this repo needs: type, enum, required, properties,
// additionalProperties (bool or schema), items, pattern, minimum,
// minItems. Unknown keywords are ignored, as the spec prescribes.
func ValidateJSON(schema, doc []byte) error {
	var s any
	if err := json.Unmarshal(schema, &s); err != nil {
		return fmt.Errorf("obs: schema is not valid JSON: %w", err)
	}
	var d any
	if err := json.Unmarshal(doc, &d); err != nil {
		return fmt.Errorf("obs: document is not valid JSON: %w", err)
	}
	return validate(s, d, "$")
}

func schemaErr(path, format string, args ...any) error {
	return fmt.Errorf("obs: schema violation at %s: %s", path, fmt.Sprintf(format, args...))
}

// jsonType names the JSON-schema type of a decoded value; integers are
// reported as "integer" and also satisfy "number".
func jsonType(v any) string {
	switch t := v.(type) {
	case nil:
		return "null"
	case bool:
		return "boolean"
	case string:
		return "string"
	case float64:
		if t == math.Trunc(t) && !math.IsInf(t, 0) {
			return "integer"
		}
		return "number"
	case []any:
		return "array"
	case map[string]any:
		return "object"
	}
	return "unknown"
}

func typeMatches(want string, v any) bool {
	got := jsonType(v)
	if want == "number" && got == "integer" {
		return true
	}
	return want == got
}

func validate(schema, doc any, path string) error {
	s, ok := schema.(map[string]any)
	if !ok {
		// A boolean schema: true accepts everything, false nothing.
		if b, isBool := schema.(bool); isBool {
			if !b {
				return schemaErr(path, "schema forbids any value here")
			}
			return nil
		}
		return schemaErr(path, "unsupported schema node %T", schema)
	}

	if t, ok := s["type"]; ok {
		switch want := t.(type) {
		case string:
			if !typeMatches(want, doc) {
				return schemaErr(path, "want type %s, got %s", want, jsonType(doc))
			}
		case []any:
			matched := false
			for _, w := range want {
				if ws, ok := w.(string); ok && typeMatches(ws, doc) {
					matched = true
					break
				}
			}
			if !matched {
				return schemaErr(path, "type %v does not admit %s", want, jsonType(doc))
			}
		}
	}

	if enum, ok := s["enum"].([]any); ok {
		matched := false
		for _, e := range enum {
			if eq, _ := json.Marshal(e); string(eq) == mustMarshal(doc) {
				matched = true
				break
			}
		}
		if !matched {
			return schemaErr(path, "value %s not in enum", mustMarshal(doc))
		}
	}

	if pat, ok := s["pattern"].(string); ok {
		if str, isStr := doc.(string); isStr {
			re, err := regexp.Compile(pat)
			if err != nil {
				return schemaErr(path, "bad pattern %q: %v", pat, err)
			}
			if !re.MatchString(str) {
				return schemaErr(path, "%q does not match pattern %q", str, pat)
			}
		}
	}

	if min, ok := s["minimum"].(float64); ok {
		if num, isNum := doc.(float64); isNum && num < min {
			return schemaErr(path, "%g below minimum %g", num, min)
		}
	}

	if obj, isObj := doc.(map[string]any); isObj {
		props, _ := s["properties"].(map[string]any)
		if req, ok := s["required"].([]any); ok {
			for _, r := range req {
				name, _ := r.(string)
				if _, present := obj[name]; !present {
					return schemaErr(path, "missing required property %q", name)
				}
			}
		}
		// Walk properties in sorted order: validation stops at the
		// first failure, so iterating the map directly made which
		// error gets reported depend on map iteration order.
		for _, name := range sortedKeys(props) {
			if v, present := obj[name]; present {
				if err := validate(props[name], v, path+"."+name); err != nil {
					return err
				}
			}
		}
		if ap, ok := s["additionalProperties"]; ok {
			for _, name := range sortedKeys(obj) {
				if _, declared := props[name]; declared {
					continue
				}
				switch apv := ap.(type) {
				case bool:
					if !apv {
						return schemaErr(path, "unexpected property %q", name)
					}
				default:
					if err := validate(ap, obj[name], path+"."+name); err != nil {
						return err
					}
				}
			}
		}
	}

	if arr, isArr := doc.([]any); isArr {
		if minItems, ok := s["minItems"].(float64); ok && float64(len(arr)) < minItems {
			return schemaErr(path, "%d items, want at least %g", len(arr), minItems)
		}
		if items, ok := s["items"]; ok {
			for i, v := range arr {
				if err := validate(items, v, fmt.Sprintf("%s[%d]", path, i)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// mustMarshal renders v compactly for error messages and enum
// comparison; decoded JSON values always marshal.
func mustMarshal(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return strings.ReplaceAll(fmt.Sprint(v), "\n", " ")
	}
	return string(b)
}
