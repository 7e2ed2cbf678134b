package fleet

import (
	"encoding/json"
	"testing"
)

// TestCompleteWirePinned pins the JSON of a completion and its reply:
// next_wait_ms is present, even at 0, only when the worker asks for
// its next unit, and a reply without a grant is the bare
// {"status":"accepted"} every coordinator has always sent.
func TestCompleteWirePinned(t *testing.T) {
	wait := int64(0)
	for _, tc := range []struct {
		v    any
		want string
	}{
		{CompleteRequest{Worker: "w", Token: 3, State: StateDoneWire, Result: json.RawMessage(`{"ipc":1}`), Attempts: 1},
			`{"worker":"w","token":3,"state":"done","result":{"ipc":1},"attempts":1}`},
		{CompleteRequest{Worker: "w", Token: 3, State: StateFailedWire, Error: "boom", NextWaitMS: &wait},
			`{"worker":"w","token":3,"state":"failed","error":"boom","next_wait_ms":0}`},
		{CompleteReply{Status: "accepted"}, `{"status":"accepted"}`},
		{CompleteReply{Status: "accepted", Grant: &LeaseGrant{LeaseID: "l00000004", Token: 4, TTL: 40,
			Job: "c0001", Unit: 1, Spec: json.RawMessage(`{}`)}},
			`{"status":"accepted","grant":{"lease_id":"l00000004","token":4,"ttl":40,"job":"c0001","unit":1,"spec":{}}}`},
	} {
		got, err := json.Marshal(tc.v)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != tc.want {
			t.Errorf("%T\n got %s\nwant %s", tc.v, got, tc.want)
		}
	}
}
