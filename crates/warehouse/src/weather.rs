//! The Weather relation of Table 1 and §1.1.
//!
//! "4-dimensional (4D) earth temperature data is typically represented by
//! a Weather table. The first four columns represent the four dimensions:
//! latitude, longitude, altitude, and time." The generator emits plausible
//! observations from a fixed set of stations, and [`nation_of`] plays the
//! paper's `Nation(lat, lon)` role for §2's histogram query.

use dc_relation::{DataType, Date, Row, Schema, Table, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One reporting station: a location plus a climate baseline.
#[derive(Debug, Clone, Copy)]
pub struct Station {
    pub name: &'static str,
    pub nation: &'static str,
    pub continent: &'static str,
    pub latitude: f64,
    pub longitude: f64,
    pub altitude_m: i64,
    /// Mean annual temperature, °C.
    pub base_temp: f64,
}

/// The fixed station roster (a small dimension table in Figure 6's
/// sense). Nation → continent is a functional dependency, which Table 7's
/// decoration example needs.
pub const STATIONS: &[Station] = &[
    Station {
        name: "San Francisco",
        nation: "USA",
        continent: "North America",
        latitude: 37.77,
        longitude: -122.42,
        altitude_m: 16,
        base_temp: 14.0,
    },
    Station {
        name: "Denver",
        nation: "USA",
        continent: "North America",
        latitude: 39.74,
        longitude: -104.99,
        altitude_m: 1609,
        base_temp: 10.0,
    },
    Station {
        name: "Mexico City",
        nation: "Mexico",
        continent: "North America",
        latitude: 19.43,
        longitude: -99.13,
        altitude_m: 2240,
        base_temp: 17.0,
    },
    Station {
        name: "Toronto",
        nation: "Canada",
        continent: "North America",
        latitude: 43.65,
        longitude: -79.38,
        altitude_m: 76,
        base_temp: 9.0,
    },
    Station {
        name: "Tokyo",
        nation: "Japan",
        continent: "Asia",
        latitude: 35.68,
        longitude: 139.69,
        altitude_m: 40,
        base_temp: 16.0,
    },
    Station {
        name: "Mumbai",
        nation: "India",
        continent: "Asia",
        latitude: 19.08,
        longitude: 72.88,
        altitude_m: 14,
        base_temp: 27.0,
    },
    Station {
        name: "Paris",
        nation: "France",
        continent: "Europe",
        latitude: 48.86,
        longitude: 2.35,
        altitude_m: 35,
        base_temp: 12.0,
    },
    Station {
        name: "Zurich",
        nation: "Switzerland",
        continent: "Europe",
        latitude: 47.37,
        longitude: 8.54,
        altitude_m: 408,
        base_temp: 9.5,
    },
];

/// The Table 1 schema: time, latitude, longitude, altitude, temperature,
/// pressure.
pub fn weather_schema() -> Schema {
    Schema::from_pairs(&[
        ("time", DataType::Date),
        ("latitude", DataType::Float),
        ("longitude", DataType::Float),
        ("altitude", DataType::Int),
        ("temp", DataType::Float),
        ("pressure", DataType::Int),
    ])
}

/// Generator parameters.
#[derive(Debug, Clone, Copy)]
pub struct WeatherParams {
    /// Observations to generate.
    pub rows: usize,
    /// First observation day.
    pub start: Date,
    /// Days covered; observation times are spread uniformly.
    pub days: usize,
    pub seed: u64,
}

impl Default for WeatherParams {
    fn default() -> Self {
        WeatherParams {
            rows: 5_000,
            start: Date::ymd(1995, 1, 1),
            days: 365,
            seed: 1996,
        }
    }
}

/// Generate observations: each row picks a station and a timestamp; the
/// temperature follows the station baseline plus a seasonal sinusoid plus
/// noise, and pressure decreases with altitude.
pub fn weather_table(p: WeatherParams) -> Table {
    let mut rng = StdRng::seed_from_u64(p.seed);
    let mut t = Table::empty(weather_schema());
    for _ in 0..p.rows {
        let s = &STATIONS[rng.gen_range(0..STATIONS.len())];
        let day_offset = rng.gen_range(0..p.days.max(1)) as i64;
        let date = p.start.plus_days(day_offset);
        #[expect(
            clippy::expect_used,
            reason = "generator ranges stay within calendar bounds"
        )]
        let time = Date::new_at(
            date.year(),
            date.month(),
            date.day(),
            rng.gen_range(0..24),
            [0u8, 15, 30, 45][rng.gen_range(0..4)],
        )
        .expect("generated timestamp is valid");
        // Northern-hemisphere season: peak near day ~200.
        let doy = f64::from(u32::from(date.month()) * 30 + u32::from(date.day()));
        let season = 10.0 * ((doy - 200.0) / 365.0 * std::f64::consts::TAU).cos();
        let temp = s.base_temp + season + rng.gen_range(-4.0..4.0);
        // Barometric formula, roughly: ~12 dm of mercury per 100 m, from
        // 1013 hPa at sea level; the paper stores pressure in dm.
        let pressure = 1013 - s.altitude_m / 9 + rng.gen_range(-8..8);
        t.push_unchecked(Row::new(vec![
            Value::Date(time),
            Value::Float(s.latitude),
            Value::Float(s.longitude),
            Value::Int(s.altitude_m),
            Value::Float((temp * 10.0).round() / 10.0),
            Value::Int(pressure),
        ]));
    }
    t
}

/// The paper's `Nation(latitude, longitude)` function (§2), resolved by
/// nearest station. Unknown coordinates map to `None`.
pub fn nation_of(latitude: f64, longitude: f64) -> Option<&'static str> {
    station_at(latitude, longitude).map(|s| s.nation)
}

/// Continent lookup for Table 7's decoration (nation → continent FD).
pub fn continent_of(nation: &str) -> Option<&'static str> {
    STATIONS
        .iter()
        .find(|s| s.nation == nation)
        .map(|s| s.continent)
}

fn station_at(latitude: f64, longitude: f64) -> Option<&'static Station> {
    STATIONS
        .iter()
        .map(|s| {
            let d = (s.latitude - latitude).powi(2) + (s.longitude - longitude).powi(2);
            (s, d)
        })
        .filter(|(_, d)| *d < 1.0) // within ~1 degree
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .map(|(s, _)| s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_generation() {
        let p = WeatherParams {
            rows: 100,
            ..Default::default()
        };
        assert_eq!(weather_table(p).rows(), weather_table(p).rows());
    }

    #[test]
    fn rows_are_physically_plausible() {
        let t = weather_table(WeatherParams {
            rows: 1_000,
            ..Default::default()
        });
        for r in t.rows() {
            let temp = r[4].as_f64().unwrap();
            assert!((-30.0..50.0).contains(&temp), "temp {temp}");
            let pressure = r[5].as_i64().unwrap();
            assert!((700..1100).contains(&pressure), "pressure {pressure}");
        }
        // Denver (high altitude) reports lower pressure than sea level.
        let denver: Vec<i64> = t
            .rows()
            .iter()
            .filter(|r| r[3] == Value::Int(1609))
            .map(|r| r[5].as_i64().unwrap())
            .collect();
        let sf: Vec<i64> = t
            .rows()
            .iter()
            .filter(|r| r[3] == Value::Int(16))
            .map(|r| r[5].as_i64().unwrap())
            .collect();
        if !denver.is_empty() && !sf.is_empty() {
            let d_avg = denver.iter().sum::<i64>() / denver.len() as i64;
            let s_avg = sf.iter().sum::<i64>() / sf.len() as i64;
            assert!(d_avg < s_avg);
        }
    }

    #[test]
    fn nation_lookup() {
        assert_eq!(nation_of(37.77, -122.42), Some("USA"));
        assert_eq!(nation_of(35.68, 139.69), Some("Japan"));
        assert_eq!(nation_of(0.0, 0.0), None); // mid-Atlantic
        assert_eq!(continent_of("Japan"), Some("Asia"));
        assert_eq!(continent_of("Atlantis"), None);
    }

    #[test]
    fn nation_to_continent_is_functional() {
        // The FD Table 7 relies on.
        use std::collections::HashMap;
        let mut seen: HashMap<&str, &str> = HashMap::new();
        for s in STATIONS {
            let prev = seen.insert(s.nation, s.continent);
            if let Some(p) = prev {
                assert_eq!(p, s.continent, "nation {} maps to two continents", s.nation);
            }
        }
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;

    #[test]
    fn zero_rows_and_single_day_params() {
        let empty = weather_table(WeatherParams {
            rows: 0,
            ..Default::default()
        });
        assert!(empty.is_empty());
        let one_day = weather_table(WeatherParams {
            rows: 50,
            days: 1,
            start: Date::ymd(1996, 2, 29),
            seed: 3,
        });
        // All observations on the single (leap) day.
        for r in one_day.rows() {
            let d = r[0].as_date().unwrap();
            assert_eq!((d.year(), d.month(), d.day()), (1996, 2, 29));
        }
    }

    #[test]
    fn seasonality_is_visible() {
        // Northern summer should be warmer than winter at the same station.
        let t = weather_table(WeatherParams {
            rows: 8_000,
            ..Default::default()
        });
        let sf_avg = |lo: u8, hi: u8| -> f64 {
            let temps: Vec<f64> = t
                .rows()
                .iter()
                .filter(|r| r[3] == Value::Int(16)) // San Francisco altitude
                .filter(|r| {
                    let m = r[0].as_date().unwrap().month();
                    m >= lo && m <= hi
                })
                .map(|r| r[4].as_f64().unwrap())
                .collect();
            temps.iter().sum::<f64>() / temps.len().max(1) as f64
        };
        assert!(
            sf_avg(6, 8) > sf_avg(12, 12) + 5.0,
            "summer must beat winter"
        );
    }
}
