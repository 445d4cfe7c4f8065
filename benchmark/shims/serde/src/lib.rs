//! Marker-trait stand-in for serde: every type is `Serialize` and
//! `Deserialize`, and nothing can actually be encoded (see the serde_json
//! stand-in, whose every call returns an error).

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

pub trait Serialize {}
impl<T: ?Sized> Serialize for T {}

pub trait Deserialize<'de>: Sized {}
impl<'de, T> Deserialize<'de> for T {}

pub mod de {
    pub trait DeserializeOwned: Sized {}
    impl<T> DeserializeOwned for T {}
}
