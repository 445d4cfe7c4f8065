//! Reader for the Prometheus text the server answers on `GET /metrics`: the
//! benchmark scrapes it before and after a phase and works with differences.

/// Sum of every series of exactly `name` whose label block holds all of
/// `labels`. A histogram's parts are series of their own: ask for
/// `<name>_sum` or `<name>_count`. 0 when no series matches.
pub fn sum(text: &str, name: &str, labels: &[(&str, &str)]) -> f64 {
    text.lines()
        .filter_map(|line| {
            let rest = line.strip_prefix(name)?;
            let (block, value) = match rest.strip_prefix('{') {
                Some(after) => after.split_once("} ")?,
                None => ("", rest.strip_prefix(' ')?),
            };
            let has_all = labels
                .iter()
                .all(|(k, v)| block.split(',').any(|pair| pair == format!("{k}=\"{v}\"")));
            if has_all {
                value.trim().parse::<f64>().ok()
            } else {
                None
            }
        })
        .sum()
}

/// Mean of a histogram series between two scrapes, in the histogram's own
/// unit: difference of `_sum` over difference of `_count`. `None` when the
/// count did not move.
pub fn mean_between(before: &str, after: &str, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
    let part = |text: &str, suffix: &str| sum(text, &format!("{name}{suffix}"), labels);
    let count = part(after, "_count") - part(before, "_count");
    (count > 0.0).then(|| (part(after, "_sum") - part(before, "_sum")) / count)
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAGE: &str = "\
# HELP diagnet_http_requests_total HTTP requests served, by route and response status.
# TYPE diagnet_http_requests_total counter
diagnet_http_requests_total{route=\"/v1/diagnose\",status=\"200\"} 120
diagnet_http_requests_total{route=\"/v1/submit\",status=\"200\"} 40
diagnet_http_requests_total{route=\"/v1/submit\",status=\"400\"} 3
# TYPE diagnet_span_duration_seconds histogram
diagnet_span_duration_seconds_bucket{span=\"core.forward\",le=\"0.001\"} 7
diagnet_span_duration_seconds_bucket{span=\"core.forward\",le=\"+Inf\"} 8
diagnet_span_duration_seconds_sum{span=\"core.forward\"} 0.004
diagnet_span_duration_seconds_count{span=\"core.forward\"} 8
diagnet_span_duration_seconds_sum{span=\"core.forward_extra\"} 9
diagnet_span_duration_seconds_sum{span=\"core.normalize\"} 0.0005
diagnet_span_duration_seconds_count{span=\"core.normalize\"} 8
diagnet_http_connections_active 2
diagnet_http_connections_active_peak 5
";

    #[test]
    fn counters_are_picked_by_label() {
        assert_eq!(sum(PAGE, "diagnet_http_requests_total", &[]), 163.0);
        let submit = [("route", "/v1/submit")];
        assert_eq!(sum(PAGE, "diagnet_http_requests_total", &submit), 43.0);
        let rejected = [("status", "400"), ("route", "/v1/submit")];
        assert_eq!(sum(PAGE, "diagnet_http_requests_total", &rejected), 3.0);
        let none = [("route", "/healthz")];
        assert_eq!(sum(PAGE, "diagnet_http_requests_total", &none), 0.0);
    }

    #[test]
    fn a_name_matches_whole_series_names_only() {
        // Neither `_bucket`/`_sum` lines nor a longer name are picked up.
        assert_eq!(sum(PAGE, "diagnet_span_duration_seconds", &[]), 0.0);
        assert_eq!(sum(PAGE, "diagnet_http_connections_active", &[]), 2.0);
        let forward = [("span", "core.forward")];
        assert_eq!(
            sum(PAGE, "diagnet_span_duration_seconds_sum", &forward),
            0.004
        );
        assert_eq!(
            sum(PAGE, "diagnet_span_duration_seconds_count", &forward),
            8.0
        );
    }

    #[test]
    fn histogram_mean_is_taken_between_two_scrapes() {
        let later = PAGE
            .replace(
                "_sum{span=\"core.forward\"} 0.004",
                "_sum{span=\"core.forward\"} 0.010",
            )
            .replace(
                "_count{span=\"core.forward\"} 8",
                "_count{span=\"core.forward\"} 11",
            );
        let forward = [("span", "core.forward")];
        let mean = mean_between(PAGE, &later, "diagnet_span_duration_seconds", &forward).unwrap();
        assert!((mean - 0.002).abs() < 1e-12);
        let normalize = [("span", "core.normalize")];
        assert!(mean_between(PAGE, &later, "diagnet_span_duration_seconds", &normalize).is_none());
    }
}
