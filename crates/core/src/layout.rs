//! Cloud naming layout shared by the protocols: buckets, key schemes and
//! the metadata fields that link a data object to its provenance.
//!
//! §4.3.1: "In the primary S3 object's metadata, we record a version number
//! and the uuid, thus linking the data and its provenance."

use cloudprov_pass::{PNodeId, Uuid};

/// Metadata key holding the object's provenance UUID.
pub const META_UUID: &str = "prov-uuid";
/// Metadata key holding the object's version at upload time.
pub const META_VERSION: &str = "prov-version";

/// Naming configuration for a protocol deployment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Layout {
    /// Bucket holding primary data objects.
    pub data_bucket: String,
    /// Bucket holding provenance objects (P1) and spilled values (P2/P3).
    pub prov_bucket: String,
    /// Key prefix of P1 provenance objects within `prov_bucket`.
    pub prov_prefix: String,
    /// Key prefix of spilled >1 KB attribute values within `prov_bucket`.
    pub spill_prefix: String,
    /// Key prefix of P3 temporary objects within `data_bucket`.
    pub temp_prefix: String,
    /// SimpleDB domain holding provenance items (P2/P3).
    pub domain: String,
}

impl Default for Layout {
    fn default() -> Self {
        Layout {
            data_bucket: "data".into(),
            prov_bucket: "prov".into(),
            prov_prefix: "p/".into(),
            spill_prefix: "xattr/".into(),
            temp_prefix: "tmp/".into(),
            domain: "provenance".into(),
        }
    }
}

impl Layout {
    /// Key of the P1 provenance object for an object UUID.
    pub fn prov_key(&self, uuid: Uuid) -> String {
        format!("{}{uuid}", self.prov_prefix)
    }

    /// Key of a spilled attribute value.
    pub fn spill_key(&self, node: PNodeId, attr: &str, idx: usize) -> String {
        format!("{}{node}/{attr}/{idx}", self.spill_prefix)
    }

    /// The pointer string stored in SimpleDB in place of a spilled value
    /// (§4.3.2: "We store provenance values larger than the 1KB SimpleDB
    /// limit as separate S3 objects, referenced from items in SimpleDB").
    pub fn spill_pointer(&self, key: &str) -> String {
        format!("@s3:{}/{key}", self.prov_bucket)
    }

    /// Parses a spill pointer back into `(bucket, key)`.
    pub fn parse_spill_pointer(value: &str) -> Option<(&str, &str)> {
        value.strip_prefix("@s3:")?.split_once('/')
    }

    /// Temp-object key for transaction `txn`, file index `idx` (P3 log
    /// phase).
    pub fn temp_key(&self, txn: Uuid, idx: usize) -> String {
        format!("{}{txn}/{idx}", self.temp_prefix)
    }
}

/// Builds the data+provenance-linking metadata for a data object.
pub fn object_metadata(id: PNodeId) -> cloudprov_cloud::Metadata {
    let mut m = cloudprov_cloud::Metadata::new();
    m.insert(META_UUID.to_string(), id.uuid.to_string());
    m.insert(META_VERSION.to_string(), id.version.to_string());
    m
}

/// Reads the provenance link back out of object metadata.
pub fn parse_object_metadata(meta: &cloudprov_cloud::Metadata) -> Option<PNodeId> {
    let uuid: Uuid = meta.get(META_UUID)?.parse().ok()?;
    let version: u32 = meta.get(META_VERSION)?.parse().ok()?;
    Some(PNodeId { uuid, version })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prov_key_roundtrip() {
        let l = Layout::default();
        let u = Uuid(0xdead_beef);
        let key = l.prov_key(u);
        let parsed: Uuid = key.strip_prefix(&l.prov_prefix).unwrap().parse().unwrap();
        assert_eq!(parsed, u);
    }

    #[test]
    fn metadata_roundtrip() {
        let id = PNodeId {
            uuid: Uuid(77),
            version: 4,
        };
        let meta = object_metadata(id);
        assert_eq!(parse_object_metadata(&meta), Some(id));
    }

    #[test]
    fn spill_pointer_roundtrip() {
        let l = Layout::default();
        let id = PNodeId::initial(Uuid(5));
        let key = l.spill_key(id, "env", 0);
        let ptr = l.spill_pointer(&key);
        let (bucket, parsed) = Layout::parse_spill_pointer(&ptr).unwrap();
        assert_eq!(bucket, "prov");
        assert_eq!(parsed, key);
        assert!(Layout::parse_spill_pointer("plain value").is_none());
    }

    #[test]
    fn temp_keys_group_by_transaction() {
        let l = Layout::default();
        let txn = Uuid(9);
        assert!(l.temp_key(txn, 0).starts_with("tmp/"));
        assert_ne!(l.temp_key(txn, 0), l.temp_key(txn, 1));
    }
}
