//! Schema validation for exported Chrome trace-event JSON.
//!
//! `bro_tool trace` and the CI smoke step run every exported trace through
//! [`validate_chrome_trace`] before declaring success: the file must parse,
//! carry a `traceEvents` array of well-formed metadata (`"M"`) and complete
//! (`"X"`) events, and keep its timestamps monotonically non-decreasing in
//! array order (the writer sorts; this check keeps it honest).

use bro_gpu_sim::Json;

/// Validates the trace-event document in `text` and returns the number of
/// complete (`"X"`) events on success.
pub fn validate_chrome_trace(text: &str) -> Result<usize, String> {
    let doc = Json::parse(text).map_err(|e| format!("trace is not valid JSON: {e}"))?;
    let events = doc
        .get("traceEvents")
        .ok_or("trace has no 'traceEvents' key")?
        .as_arr()
        .ok_or("'traceEvents' is not an array")?;

    let mut last_ts = f64::NEG_INFINITY;
    let mut complete = 0usize;
    for (i, ev) in events.iter().enumerate() {
        let ctx = |what: &str| format!("event {i}: {what}");
        let ph = ev.get("ph").and_then(Json::as_str).ok_or_else(|| ctx("missing string 'ph'"))?;
        for key in ["pid", "tid"] {
            ev.get(key)
                .and_then(Json::as_int)
                .ok_or_else(|| ctx(&format!("missing integer '{key}'")))?;
        }
        let name =
            ev.get("name").and_then(Json::as_str).ok_or_else(|| ctx("missing string 'name'"))?;
        if name.is_empty() {
            return Err(ctx("empty name"));
        }
        let ts = ev.get("ts").and_then(Json::as_f64).ok_or_else(|| ctx("missing numeric 'ts'"))?;
        if !ts.is_finite() || ts < 0.0 {
            return Err(ctx(&format!("non-finite or negative ts {ts}")));
        }
        match ph {
            "M" => {} // metadata events carry no duration
            "X" => {
                let dur = ev
                    .get("dur")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| ctx("complete event missing numeric 'dur'"))?;
                if !dur.is_finite() || dur < 0.0 {
                    return Err(ctx(&format!("negative or non-finite dur {dur}")));
                }
                if ts < last_ts {
                    return Err(ctx(&format!(
                        "timestamps are not monotonically ordered ({ts} after {last_ts})"
                    )));
                }
                last_ts = ts;
                complete += 1;
            }
            other => return Err(ctx(&format!("unknown phase '{other}'"))),
        }
    }
    Ok(complete)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bro_gpu_sim::{chrome_trace_json, Tracer};

    #[test]
    fn real_export_validates() {
        let t = Tracer::enabled();
        let a = t.begin(0, "outer");
        let b = t.begin(0, "inner");
        t.end(b);
        t.end(a);
        t.record_model_span(1, "local", 0.0, 3.0, None);
        let json = chrome_trace_json(&t.spans());
        assert_eq!(validate_chrome_trace(&json), Ok(3));
    }

    #[test]
    fn empty_trace_validates_with_zero_events() {
        assert_eq!(validate_chrome_trace("{\"traceEvents\":[]}"), Ok(0));
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{}").unwrap_err().contains("traceEvents"));
        assert!(validate_chrome_trace("{\"traceEvents\":3}").unwrap_err().contains("array"));
    }

    #[test]
    fn malformed_events_are_rejected() {
        let missing_ph = "{\"traceEvents\":[{\"pid\":0,\"tid\":0,\"ts\":0,\"name\":\"a\"}]}";
        assert!(validate_chrome_trace(missing_ph).unwrap_err().contains("ph"));
        let bad_phase = "{\"traceEvents\":[{\"ph\":\"Q\",\"pid\":0,\"tid\":0,\"ts\":0,\
                         \"name\":\"a\"}]}";
        assert!(validate_chrome_trace(bad_phase).unwrap_err().contains("unknown phase"));
        let no_dur = "{\"traceEvents\":[{\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":0,\
                      \"name\":\"a\"}]}";
        assert!(validate_chrome_trace(no_dur).unwrap_err().contains("dur"));
    }

    #[test]
    fn out_of_order_timestamps_are_rejected() {
        let trace = "{\"traceEvents\":[\
            {\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":5,\"dur\":1,\"name\":\"a\"},\
            {\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":2,\"dur\":1,\"name\":\"b\"}]}";
        assert!(validate_chrome_trace(trace).unwrap_err().contains("monotonically"));
    }
}
